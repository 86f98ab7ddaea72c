(** The machine-readable experiment inventory.

    DESIGN.md's experiment index, as data: every paper table/figure and
    every beyond-paper extension, with its bench target and the modules
    that implement it, in bench order.  This is the bench's experiment
    table: [Xc_suite.Experiments] maps every id to its cells and aborts
    at startup naming an id without a case.  [xc experiments] lists it;
    a test asserts those cases cover exactly these ids, in order. *)

type kind = Paper_table | Paper_figure | Paper_section | Extension

type entry = {
  id : string;  (** bench target name, e.g. ["fig4"] *)
  kind : kind;
  paper_ref : string;  (** e.g. ["Table 1"], ["Figure 8"], ["§4.5"] *)
  title : string;
  modules : string list;  (** implementing modules *)
}

val all : entry list
val find : string -> entry option
val paper_entries : entry list
val extension_entries : entry list
val pp_entry : Format.formatter -> entry -> unit
