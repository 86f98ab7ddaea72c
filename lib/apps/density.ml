type policy = Static | Balloon | Balloon_tmem

let policy_name = function
  | Static -> "static reservation (prototype)"
  | Balloon -> "ballooning to the 64MB floor"
  | Balloon_tmem -> "ballooning + tmem shared cache"

let all_policies = [ Static; Balloon; Balloon_tmem ]

type result = {
  policy : policy;
  containers : int;
  active_fraction : float;
  tmem_pool_mb : int;
  est_page_cache_hit_gain : float;
}

let dom0_mb = 1024
let host_mb = 96 * 1024
let reservation_mb = 128

let run ?(active_fraction = 0.2) policy =
  let available = host_mb - dom0_mb in
  let floor_mb = Xc_hypervisor.Balloon.min_usable_mb in
  match policy with
  | Static ->
      {
        policy;
        containers = available / reservation_mb;
        active_fraction;
        tmem_pool_mb = 0;
        est_page_cache_hit_gain = 0.;
      }
  | Balloon | Balloon_tmem ->
      (* Active containers keep their reservation; idle ones are
         ballooned to the floor.  The tmem policy sets aside an eighth
         of the host as the shared page-cache pool before packing. *)
      let tmem_reserve = match policy with Balloon_tmem -> available / 8 | _ -> 0 in
      let packable = available - tmem_reserve in
      let avg_mb =
        (active_fraction *. float_of_int reservation_mb)
        +. ((1. -. active_fraction) *. float_of_int floor_mb)
      in
      let containers = int_of_float (float_of_int packable /. avg_mb) in
      (* Verify against the actual balloon machinery: boot the fleet at
         the floor-mixture and check the pool balances. *)
      let pool = Xc_hypervisor.Balloon.pool ~host_mb:packable in
      let booted = ref 0 in
      (try
         for i = 1 to containers do
           let d =
             Xc_hypervisor.Domain.create ~kind:Xc_hypervisor.Domain.Domu
               ~vcpus:1 ~memory_mb:reservation_mb
           in
           let b = Xc_hypervisor.Balloon.create ~domain:d in
           Xc_hypervisor.Balloon.attach pool b;
           let target =
             if float_of_int i /. float_of_int containers <= active_fraction
             then reservation_mb
             else floor_mb
           in
           (match Xc_hypervisor.Balloon.set_target b ~usable_mb:target with
           | Ok _ -> ()
           | Error e -> failwith e);
           if Xc_hypervisor.Balloon.pool_free_mb pool < 0 then raise Exit;
           incr booted
         done
       with Exit -> ());
      let tmem_pool_mb =
        match policy with
        | Balloon_tmem ->
            tmem_reserve + Stdlib.max 0 (Xc_hypervisor.Balloon.pool_free_mb pool)
        | _ -> 0
      in
      let est_page_cache_hit_gain =
        match policy with
        | Balloon_tmem ->
            (* A shared pool of P MB across N 64MB guests: assume the
               hot file set is ~1 GB/host and cache hits scale with
               pool coverage, capped at 90%. *)
            Float.min 0.9 (float_of_int tmem_pool_mb /. 1024. /. 12.)
        | _ -> 0.
      in
      {
        policy;
        containers = !booted;
        active_fraction;
        tmem_pool_mb;
        est_page_cache_hit_gain;
      }

let density_gain a b = float_of_int b.containers /. float_of_int a.containers
