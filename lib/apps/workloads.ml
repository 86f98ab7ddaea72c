type t = {
  name : string;
  tool : string;
  connections : int;
  keepalive : bool;
  set_get_ratio : (int * int) option;
  notes : string;
}

let ab =
  {
    name = "ab";
    tool = "Apache ab";
    connections = 100;
    keepalive = false;
    set_get_ratio = None;
    notes = "full TCP connection per request; drives Figure 3 NGINX";
  }

let memtier =
  {
    name = "memtier";
    tool = "memtier_benchmark";
    connections = 200;
    keepalive = true;
    set_get_ratio = Some (1, 10);
    notes = "1:10 SET:GET (Section 5.3); drives memcached";
  }

let redis_bench =
  {
    name = "redis-benchmark";
    tool = "redis-benchmark";
    connections = 50;
    keepalive = true;
    set_get_ratio = None;
    notes = "default command mix; drives Redis";
  }


let closed_loop_config ?(duration_ns = 2e9) ?(seed = 42) w =
  {
    Xc_platforms.Closed_loop.default_config with
    connections = w.connections;
    duration_ns;
    seed;
  }
