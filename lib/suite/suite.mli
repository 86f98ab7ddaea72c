(** A composable, named collection of {!Spec}s with a strict
    human-writable text form.

    {2 File format}

    Line-oriented key=value, full-line [#] comments, three section
    kinds:

    {v
    suite = fig9-matrix          # optional, before the first section

    [experiment one-off]         # one spec; fields override defaults
    runtime = docker
    connections = 96

    [matrix sweep]               # cross-product: comma-separated
    runtime = docker, x-container   # values make an axis
    connections = 1, 5
    shape = cluster              # single values apply to every point
    v}

    A matrix expands to one spec per combination (later axes vary
    fastest), named [NAME/v1/v2/...] from the multi-valued axes in
    order.  Parsing is strict: unknown fields, malformed values,
    out-of-range numbers and duplicate experiment names all fail with
    a named-field error.  {!print} emits a canonical expanded form
    (every spec as an [experiment] section, only non-default fields)
    that {!parse} maps back to the identical value. *)

type t = { name : string; specs : Spec.t list }

val make : name:string -> Spec.t list -> (t, string) result
(** Validates every spec and rejects duplicate experiment names. *)

val cross_axes :
  base:Spec.t -> (string * string list) list -> (Spec.t list, string) result
(** [cross_axes ~base axes]: the cross product of the given field
    axes over [base], later axes varying fastest.  Values are deduped
    per axis (order-preserving); an axis with one distinct value is an
    override and contributes no name segment, so the result's
    cardinality is the product of the distinct-value counts and names
    are unique by construction. *)

val print : t -> string
val parse : ?name:string -> string -> (t, string) result
(** [name] is the default suite name if the text has no [suite =]
    line. *)

val parse_file : string -> (t, string) result
