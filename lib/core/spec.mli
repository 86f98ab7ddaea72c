(** Container specifications.

    The unit of deployment: a (single-concerned) container image plus the
    resources it gets.  Mirrors what the paper's Docker Wrapper consumes:
    a Docker image name and an X-LibOS configuration. *)

type t = {
  name : string;
  image : string;  (** e.g. ["nginx:1.13"] *)
  vcpus : int;
  memory_mb : int;
  processes : int;  (** worker processes the container spawns *)
}

val make :
  ?vcpus:int -> ?memory_mb:int -> ?processes:int -> name:string -> image:string ->
  unit -> t

val validate : t -> (t, string) result
val pp : Format.formatter -> t -> unit
