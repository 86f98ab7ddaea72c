(** Kernel pipes.

    Behind two UnixBench tests: Pipe Throughput (one process reading and
    writing its own pipe) and Context Switching (two processes ping-pong
    over a pipe pair).  Only the kernel work of a transfer is priced. *)

val transfer_cost_ns : bytes_len:int -> float
(** Kernel work for one pipe read or write of [bytes_len]. *)
