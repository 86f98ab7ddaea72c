(** An in-memory virtual filesystem.

    Backs the File Copy microbenchmark and the static pages NGINX serves.
    Paths are absolute, ['/']-separated; the tree is a plain recursive
    structure of directories and byte files. *)

type t

type error =
  | Not_found
  | Not_a_directory
  | Is_a_directory

val error_to_string : error -> string

val create : unit -> t

val mkdir_p : t -> string -> (unit, error) result

val write_file : t -> string -> bytes -> (unit, error) result
(** Create or truncate a file with the given contents. *)

val read_file : t -> string -> (bytes, error) result
val readdir : t -> string -> (string list, error) result

val copy_cost_ns : bytes_len:int -> float
(** Kernel work to move [bytes_len] through read/write: fixed path cost
    plus per-byte copy. *)
