(* Shared by the wire, campaign and PC-broadcast tests: one table of the
   group wrappers that take a codec — BSS, OSend, Psync and PC.  Each
   entry runs one fixed workload with or without its codec on a network
   the caller builds, so a test can compare the two runs of the same
   seed: a codec is an encoding of the same traffic, and the same RNG
   draws must deliver the same orders. *)

module Engine = Causalb_sim.Engine
module Net = Causalb_net.Net
module Label = Causalb_graph.Label
module Dep = Causalb_graph.Dep
module Metrics = Causalb_stackbase.Metrics
module Codec = Causalb_core.Codec
module Bss = Causalb_core.Bss
module Osend = Causalb_core.Osend
module Group = Causalb_core.Group
module Psync = Causalb_core.Psync
module Pcb = Causalb_core.Pcbcast

type workload = {
  nodes : int;
  ops : int;
  dep : Label.t array -> int -> Dep.t;
      (* OSend's predicate for op [i], given the labels of ops [< i] *)
}

(* Builds the run's network: plain latency, or traced with a nemesis. *)
type net_maker = { make : 'w. Engine.t -> 'w Net.t }

type run = {
  delivered : string list list;
      (* per member, in delivery order: tags (BSS, PC) or labels
         (OSend, Psync) *)
  bytes_sent : int;
  metrics : Metrics.t list;  (* per member *)
}

type engine = {
  name : string;
  run : framed:bool -> workload -> net_maker -> seed:int -> run;
}

let tag i = Printf.sprintf "t%d" i

let payload i = Printf.sprintf "p%d" i

let codec framed c = if framed then Some c else None

(* Op [i] at time i/2 from sender [i mod nodes]. *)
let schedule w engine f =
  for i = 0 to w.ops - 1 do
    Engine.schedule_at engine ~time:(0.5 *. float_of_int i) (fun () -> f i)
  done;
  Engine.run engine

let labels = List.map (List.map Label.to_string)

let bss =
  let run ~framed w nets ~seed =
    let engine = Engine.create ~seed () in
    let net = nets.make engine in
    let codec = codec framed (Codec.bss Codec.put_str Codec.get_str) in
    let g = Bss.Group.create ?codec net () in
    schedule w engine (fun i ->
        Bss.Group.bcast g ~src:(i mod w.nodes) ~tag:(tag i) (payload i));
    {
      delivered = List.init w.nodes (Bss.Group.delivered_tags g);
      bytes_sent = Net.bytes_sent net;
      metrics = List.init w.nodes (fun i -> Bss.metrics (Bss.Group.member g i));
    }
  in
  { name = "bss"; run }

let osend =
  let run ~framed w nets ~seed =
    let engine = Engine.create ~seed () in
    let net = nets.make engine in
    let codec = codec framed (Codec.message Codec.put_str Codec.get_str) in
    let g = Group.create ?codec net () in
    let sent = Array.make w.ops (Label.make ~origin:0 ~seq:0 ()) in
    schedule w engine (fun i ->
        sent.(i) <-
          Group.osend g ~src:(i mod w.nodes) ~name:(tag i) ~dep:(w.dep sent i)
            (payload i));
    {
      delivered = labels (Group.all_delivered_orders g);
      bytes_sent = Net.bytes_sent net;
      metrics = List.init w.nodes (fun i -> Osend.metrics (Group.member g i));
    }
  in
  { name = "osend"; run }

let psync =
  let run ~framed w nets ~seed =
    let engine = Engine.create ~seed () in
    let net = nets.make engine in
    let codec = codec framed (Codec.message Codec.put_str Codec.get_str) in
    let g = Psync.create ?codec net () in
    schedule w engine (fun i ->
        ignore (Psync.send g ~src:(i mod w.nodes) ~name:(tag i) (payload i)));
    {
      delivered = labels (Psync.all_delivered_orders g);
      bytes_sent = Net.bytes_sent net;
      metrics = List.init w.nodes (Psync.metrics g);
    }
  in
  { name = "psync"; run }

let pc =
  let run ~framed w nets ~seed =
    let engine = Engine.create ~seed () in
    let net = nets.make engine in
    let codec = codec framed (Codec.pc Codec.put_str Codec.get_str) in
    let g = Pcb.Group.create ?codec net () in
    schedule w engine (fun i ->
        ignore (Pcb.Group.bcast g ~src:(i mod w.nodes) ~tag:(tag i) (payload i)));
    {
      delivered = List.init w.nodes (Pcb.Group.delivered_tags g);
      bytes_sent = Net.bytes_sent net;
      metrics = List.init w.nodes (fun i -> Pcb.metrics (Pcb.Group.member g i));
    }
  in
  { name = "pc"; run }

let engines = [ bss; osend; psync; pc ]

let wire_bytes r =
  List.fold_left (fun acc m -> acc + m.Metrics.wire_bytes) 0 r.metrics
