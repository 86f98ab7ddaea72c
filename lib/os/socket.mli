(** TCP-style sockets inside one kernel instance.

    A functional state machine for the socket lifecycle the application
    models narrate (accept/recv/send): listeners with backlogs, connected
    pairs with bounded send/receive buffers, and the error cases tests
    care about.  Cross-host traffic is priced by {!Xc_net}; this module
    provides the {i semantics} inside a guest (loopback, or the endpoint
    behaviour at either side of a priced link). *)

type t
(** A socket endpoint. *)

type state =
  | Closed
  | Listening of { backlog : int; pending : t list }
  | Connecting
  | Established
  | Shut_down

val create : unit -> t
val state : t -> state

val bind : t -> port:int -> (unit, string) result
(** Fails if the port is taken in this kernel's namespace or the socket
    is not fresh. *)

val listen : t -> backlog:int -> (unit, string) result

val connect : t -> to_port:int -> namespace:t list -> (t, string) result
(** Connect to a listening socket among [namespace] (the kernel's bound
    sockets); returns this side's established endpoint.  The connection
    sits in the listener's pending queue until accepted; fails when the
    backlog is full or nobody listens on the port. *)

val accept : t -> (t, string) result
(** Pop one pending connection; the returned socket is the server-side
    endpoint of the pair, already established. *)

val send : t -> bytes -> (int, string) result
(** Append to the peer's receive buffer, bounded by {!buffer_capacity};
    returns bytes accepted (0 = would block). *)

val recv : t -> max_len:int -> (bytes, string) result
(** Drain from this endpoint's receive buffer; [Bytes.empty] when there
    is nothing (would block). *)

val close : t -> unit
(** Close this endpoint; the peer observes EOF ([recv] returns an error
    after draining). *)

val buffer_capacity : int
