type region = User | Kernel

type t = { table : Page_table.t }

let create () = { table = Page_table.create () }

(* We fold the 48-bit canonical space down: pages at or above this vpn are
   the kernel half.  2^35 pages = 128 TiB of user space, plenty. *)
let kernel_base_vpn = 1 lsl 35

let region_of_vpn vpn = if vpn >= kernel_base_vpn then Kernel else User

let map_user t ~vpn ~pages ~first_pfn =
  if vpn + pages > kernel_base_vpn then invalid_arg "map_user: above user half";
  Page_table.map_range t.table ~vpn ~pages ~first_pfn ~flags:(fun ~pfn ->
      Pte.make ~writable:true ~user:true ~global:false ~pfn ())

let map_kernel t ~global ~vpn ~pages ~first_pfn =
  if vpn < kernel_base_vpn then invalid_arg "map_kernel: below kernel half";
  Page_table.map_range t.table ~vpn ~pages ~first_pfn ~flags:(fun ~pfn ->
      Pte.make ~writable:true ~user:false ~global ~pfn ())

let count_region t region =
  let n = ref 0 in
  Page_table.iter t.table (fun vpn _ -> if region_of_vpn vpn = region then incr n);
  !n

let user_pages t = count_region t User
let kernel_pages t = count_region t Kernel

let kernel_global t =
  let all = ref true and any = ref false in
  Page_table.iter t.table (fun vpn pte ->
      if region_of_vpn vpn = Kernel then begin
        any := true;
        if not pte.Pte.global then all := false
      end);
  !any && !all
