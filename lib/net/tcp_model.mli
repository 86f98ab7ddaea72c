(** Steady-state TCP throughput (the iperf benchmark).

    iperf throughput is the minimum of three ceilings: the wire, the
    window/RTT product, and — the interesting one here — the CPU:
    per-packet processing cost bounds packets per second, and the
    platforms differ exactly in that per-packet cost. *)

type result = {
  throughput_gbps : float;
  bottleneck : [ `Wire | `Window | `Cpu ];
}

val steady_throughput :
  per_packet_cpu_ns:float ->
  ?mss:int ->
  ?window_bytes:int ->
  ?rtt_ns:float ->
  link:Link.t ->
  unit ->
  result
