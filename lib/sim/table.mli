(** Typed tables.

    Every table the bench and [xc] print is one of these: titled
    columns over rows of typed cells, built once.  Its two views are
    {!render} (the aligned text the bench prints) and {!to_csv} (the
    same cells at full precision, for plotting). *)

type align = Left | Right

(** How a number is shown: each format is one fixed [Printf] layout
    of the number. *)
type format =
  | Scaled of { per : float; digits : int; unit : string }
      (** [v /. per] at [digits] decimals, then [unit]:
          [Scaled { per = 1e3; digits = 1; unit = "us" }] shows [52.4us]. *)
  | Ratio  (** Two decimals and [x]: [1.30x]. *)
  | Si  (** {!fmt_si}: [30.5K]. *)
  | Percent of int  (** [100 *. v] at that many decimals, then [%]. *)
  | Delta of int  (** [Percent], signed: [+1.9%]. *)

type cell =
  | Text of string
  | Num of float * format * string
      (** A number, its format, and text shown after it verbatim: a
          compound cell such as [44.6% (92.2% manual)] carries its
          leading number. *)

val num : ?rest:string -> format -> float -> cell
(** [Num (v, format, rest)]; [rest] defaults to [""]. *)

val int : int -> cell
(** An integer, shown as [string_of_int] shows it. *)

type t

val create : ?title:string -> (string * align) list -> t
(** [create ~title columns] starts a table with the given column headers. *)

val add_row : t -> cell list -> unit
(** Row length must match the number of columns. *)

val title : t -> string option

val render : t -> string
(** Aligned text: the title underlined with [=], the headers, a rule
    of [-], then one line per row. *)

val print : t -> unit

val to_csv : t -> string
(** The headers, then one line per row.  A number is written as its
    scaled value ([v /. per] for [Scaled], [100 *. v] for [Percent]
    and [Delta], [v] for [Ratio] and [Si], whose suffix moves with the
    magnitude) in {!fmt_shortest} form, without its unit or [rest];
    text containing a comma, a double quote or a newline is quoted. *)

(** Number formatting helpers. *)

val fmt_si : float -> string
(** 12K / 3.4M style, for request rates. *)

val fmt_shortest : float -> string
(** The shortest decimal form that parses back to the identical float
    ([0.7], [1e-05], [3]), so print -> parse is the identity. *)
