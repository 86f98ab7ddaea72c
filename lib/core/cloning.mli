(** Instance cloning (Section 4.5 "Spawning speed of new instances").

    The paper cites VM cloning (SnowFlock, VMPlants) as the way to cut
    the X-LibOS boot out of the start-up path: fork new instances from a
    booted parent snapshot, faulting memory in on demand.  This model
    lets the harness compare cold boots against clones. *)

type snapshot

val snapshot_of_parent :
  memory_mb:int -> resident_pages:int -> snapshot
(** Capture a booted parent: only its resident working set must be
    materialised eagerly in a clone. *)

type clone_breakdown = {
  toolstack_ns : float;  (** LightVM-style: descriptor setup only *)
  page_sharing_setup_ns : float;  (** mark parent pages copy-on-write *)
  eager_copy_ns : float;  (** the resident set faulted at start *)
  total_ns : float;
}

val clone : snapshot -> clone_breakdown

val speedup_vs_cold_boot : snapshot -> float
(** Clone total vs the xl-toolstack cold boot of Section 4.5. *)

val speedup_vs_lightvm_boot : snapshot -> float
