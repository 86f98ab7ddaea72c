(** Aligned text tables.

    The benchmark harness prints each reproduced paper table/figure as an
    aligned text table (and optionally CSV); this is the tiny renderer
    behind all of them. *)

type align = Left | Right

type t

val create : ?title:string -> (string * align) list -> t
(** [create ~title columns] starts a table with the given column headers. *)

val add_row : t -> string list -> unit
(** Row length must match the number of columns. *)

val render : t -> string
val print : t -> unit
val to_csv : t -> string

(** Cell formatting helpers. *)

val fmt_ratio : float -> string
(** e.g. [2.13x]. *)

val fmt_si : float -> string
(** 12K / 3.4M style, for request rates. *)

val fmt_shortest : float -> string
(** The shortest decimal form that parses back to the identical float
    ([0.7], [1e-05], [3]), so print -> parse is the identity. *)
