type t =
  | Read
  | Write
  | Open
  | Close
  | Stat
  | Fstat
  | Lseek
  | Mmap
  | Munmap
  | Brk
  | Rt_sigreturn
  | Pipe
  | Dup
  | Getpid
  | Socket
  | Connect
  | Accept
  | Sendto
  | Recvfrom
  | Clone
  | Fork
  | Execve
  | Exit
  | Wait4
  | Umask
  | Getuid
  | Epoll_wait
  | Epoll_ctl
  | Accept4

let number = function
  | Read -> 0
  | Write -> 1
  | Open -> 2
  | Close -> 3
  | Stat -> 4
  | Fstat -> 5
  | Lseek -> 8
  | Mmap -> 9
  | Munmap -> 11
  | Brk -> 12
  | Rt_sigreturn -> 15
  | Pipe -> 22
  | Dup -> 32
  | Getpid -> 39
  | Socket -> 41
  | Connect -> 42
  | Accept -> 43
  | Sendto -> 44
  | Recvfrom -> 45
  | Clone -> 56
  | Fork -> 57
  | Execve -> 59
  | Exit -> 60
  | Wait4 -> 61
  | Umask -> 95
  | Getuid -> 102
  | Epoll_wait -> 232
  | Epoll_ctl -> 233
  | Accept4 -> 288

let all =
  [
    Read; Write; Open; Close; Stat; Fstat; Lseek; Mmap; Munmap; Brk;
    Rt_sigreturn; Pipe; Dup; Getpid; Socket; Connect; Accept; Sendto;
    Recvfrom; Clone; Fork; Execve; Exit; Wait4; Umask; Getuid; Epoll_wait;
    Epoll_ctl; Accept4;
  ]

let of_number n = List.find_opt (fun s -> number s = n) all

let name = function
  | Read -> "read"
  | Write -> "write"
  | Open -> "open"
  | Close -> "close"
  | Stat -> "stat"
  | Fstat -> "fstat"
  | Lseek -> "lseek"
  | Mmap -> "mmap"
  | Munmap -> "munmap"
  | Brk -> "brk"
  | Rt_sigreturn -> "rt_sigreturn"
  | Pipe -> "pipe"
  | Dup -> "dup"
  | Getpid -> "getpid"
  | Socket -> "socket"
  | Connect -> "connect"
  | Accept -> "accept"
  | Sendto -> "sendto"
  | Recvfrom -> "recvfrom"
  | Clone -> "clone"
  | Fork -> "fork"
  | Execve -> "execve"
  | Exit -> "exit"
  | Wait4 -> "wait4"
  | Umask -> "umask"
  | Getuid -> "getuid"
  | Epoll_wait -> "epoll_wait"
  | Epoll_ctl -> "epoll_ctl"
  | Accept4 -> "accept4"
