(** A functional HTTP/1.0-style server over the OS substrate.

    The recipes in this library price requests; this module additionally
    {i executes} them: a listener socket, real accept/recv/send on
    bounded buffers, pages read from the guest kernel's VFS.  Integration
    tests drive a whole request through it, which is how the reproduction
    keeps the semantic layer honest underneath the cost layer. *)

type t

val create :
  kernel:Xc_os.Kernel.t -> port:int -> docroot:string -> (t, string) result
(** Bind and listen; the docroot must exist in the kernel's VFS. *)

val listener : t -> Xc_os.Socket.t
val port : t -> int

val handle_pending : t -> int
(** Accept and fully serve every pending connection; returns how many
    requests were served.  Unknown paths get a 404; requests that are
    not [GET] get a 400. *)

val requests_served : t -> int

(** {2 Client side} *)

val get :
  ?id:int ->
  ?deliver:(unit -> unit) ->
  t ->
  path:string ->
  (int * string, string) result
(** Open a connection, send [GET path], run the server, read the reply;
    returns (status code, body).

    When tracing is enabled the whole exchange is bracketed by a
    [request]/[httpd] span carrying the request id in its [value]
    field (explicit [?id], else a per-server counter), and each
    socket/VFS step charges its kernel syscall work so the request's
    [syscall-work] children land inside the span's window —
    [Xc_trace.Profile.attribute] then explains the request end-to-end.
    [?deliver] runs between send and serve, inside that window: the
    place to model wire hops and interrupt delivery (net.hop / evtchn
    spans).  Untraced behaviour is unchanged. *)
