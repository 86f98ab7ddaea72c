(** x86-64 Linux system-call numbers.

    The subset used by the modelled applications and by the UnixBench
    microbenchmarks (the paper's System Call test loops over dup, close,
    getpid, getuid and umask).  Numbers match the real x86-64 table so
    ABOM-patched binaries carry authentic immediates. *)

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

val number : t -> int
val of_number : int -> t option
val name : t -> string
val all : t list
