(** Platform configurations under evaluation.

    The paper compares ten cloud configurations (five runtimes, each
    patched/unpatched for Meltdown, Section 5.1) plus the LibOS platforms
    of Section 5.5 and the VM baselines of Section 5.6. *)

type runtime =
  | Docker  (** native containers on the host kernel *)
  | Gvisor  (** ptrace-based user-space kernel *)
  | Clear_container  (** KVM VM per container, nested in the cloud *)
  | Xen_container  (** LightVM-style: stock Xen PV + stock Linux guest *)
  | X_container  (** the paper's system: X-Kernel + X-LibOS *)
  | Xen_hvm  (** Docker inside a full Xen HVM VM (Figure 8) *)
  | Xen_pv  (** Docker inside a stock Xen PV VM (Figure 8) *)
  | Unikernel  (** Rumprun (Section 5.5) *)
  | Graphene  (** the multi-process LibOS (Section 5.5) *)

type cloud = Amazon_ec2 | Google_gce | Local_cluster

type t = { runtime : runtime; cloud : cloud; meltdown_patched : bool }

val make : ?cloud:cloud -> ?meltdown_patched:bool -> runtime -> t

val runtime_name : runtime -> string

val name : t -> string
(** e.g. ["X-Container"] or ["Docker-unpatched"]. *)

val ten_configurations : cloud -> t list
(** The full patched x unpatched grid of Section 5.1. *)

(** {2 Capability matrix (Section 2.3)} *)

type feature =
  | Binary_compat
  | Multiprocess  (** can spawn multiple processes *)
  | Multicore  (** can run them concurrently *)
  | Kernel_modules  (** can load custom kernel modules (Section 5.7) *)
  | No_hw_virt  (** runs without (nested) hardware virtualization *)

val supports : runtime -> feature -> bool
val feature_name : feature -> string
