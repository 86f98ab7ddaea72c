(** XenStore: the hierarchical configuration store of the Xen toolstack.

    Domain configuration, device handshakes and the split-driver
    front/back negotiation all go through this key-value tree with
    watches.  The xl toolstack's slowness the paper measures (Section
    4.5) is largely serialised XenStore traffic; the model counts
    operations so the boot-path analysis can attribute time to it. *)

type t

val create : unit -> t

val write : t -> path:string -> string -> unit
(** Create intermediate directories implicitly (as XenStore does);
    fires watches on the path and every ancestor. *)

val read : t -> path:string -> string option
val directory : t -> path:string -> string list
(** Immediate children names (sorted); empty for missing paths. *)

val watch : t -> path:string -> (string -> unit) -> unit
(** Register a callback fired with the changed path for every write/rm
    at or under [path]. *)

val op_count : t -> int
(** Total reads+writes+rms (the serialised traffic the toolstack pays). *)

(** {2 The domain-device handshake} *)

val device_handshake : t -> domid:int -> device:string -> int
(** Run the canonical front/back negotiation for one device (states
    Initialising -> InitWait -> Initialised -> Connected, both sides):
    writes the state keys in order and returns the number of XenStore
    operations it took — the per-device toolstack cost. *)
