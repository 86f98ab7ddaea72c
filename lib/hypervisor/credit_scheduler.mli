(** Xen's credit scheduler, as the hierarchical-scheduling analysis of
    Figure 8 prices it: the cost of one vCPU switch.  Scheduling itself
    is simulated in [Xc_platforms.Cluster_sim]. *)

val switch_cost_ns : runnable_vcpus:int -> float
(** Cost of one vCPU switch: fixed context save/restore plus runqueue
    bookkeeping growing with queue length. *)
