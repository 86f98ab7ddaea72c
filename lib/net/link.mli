(** Physical links.

    The local cluster of Section 5.5 uses a 10 Gbit switch; the cloud
    experiments see similar NIC-limited paths.  A link contributes
    propagation latency plus serialisation time. *)

type t

val create : ?latency_ns:float -> gbps:float -> unit -> t

val ten_gbe : t
(** 10 GbE with a typical in-rack latency. *)

val serialize_ns : t -> bytes_len:int -> float
(** Time to clock [bytes_len] onto the wire. *)

val transfer_ns : t -> bytes_len:int -> float
(** One-way latency + serialisation. *)

val capacity_bytes_per_s : t -> float
