(* Scaling + allocation benchmarks for the hot paths.

   Every shape is measured twice inside this one binary: "before" drives
   a frozen engine from [Causalb_reference], "after" drives the live
   code, on identical inputs.  That keeps the comparison honest (same
   compiler, same allocator state, same inputs) and lets CI regenerate
   the numbers in one run.  Besides CPU time, each measurement records
   the minor/major-heap words one run allocates ([Gc.quick_stat] deltas
   over the timed loop — allocation is deterministic, so the per-run
   figure is exact).

   Shapes, per engine:
   - [osend.chain]  — an N-message dependency chain arriving in reverse:
     everything parks on the missing head, then one receive releases the
     whole chain.  The seed sweeps the shrinking pool once per link
     (O(N^2)); the index wakes each link directly (O(N)).
   - [osend.wide]   — N/2 messages parked on one missing root while N/2
     independent messages deliver through: each independent delivery made
     the seed rescan the whole parked pool (O(N^2/4)); the index wakes
     nobody.  The root arrives last and releases the fan.
   - [bss.chain]    — one origin's vector-stamped sequence arriving in
     reverse; same pool-sweep vs bucket cascade contrast.
   - [counted.batch] — an N-message Counted bracket: the seed walked the
     buffer length on every insert (O(N^2) per bracket); the maintained
     size counter leaves one stable sort at the close.
   - [net.bcast]    — broadcast fan-out with tracing off: the frozen PR 3
     transport builds a trace info string and a fresh delivery closure
     per copy; the live one guards the sprintf behind [tracing] and
     recycles packets through a free list.  The headline
     words-per-delivered-message row.
   - [clock.receive] — vector-clock message receipt: the PR 3 composition
     [tick (merge local remote) me] (two fresh vectors per stamp) vs the
     in-place [receive_into] (none).
   - [wire.codec]   — envelope serialisation round trip: generic JSON
     text (the pipe/artifact codec) vs the binary wire codec.  The row's
     [wire_bytes_per_unit] records the binary frame size per envelope.
   - [wire.fanout]  — serialisation work of one broadcast to 8
     recipients: encode-per-recipient + decode-per-copy (what a naive
     transport does) vs encode-once + shared-frame memoised decode
     (what a group with a codec does through [Sgroup.encode] and
     [Sgroup.view] — one encode and one decode per broadcast, however
     many recipients).

   Results go to a table on stdout and to the cumulative machine-readable
   artifact (default [BENCH_PR10.json], override with CAUSALB_BENCH_OUT)
   via [Bench_out].  Each row is the PR 3 schema {name; n; before_ns;
   after_ns; speedup} plus GC words, a [units] normaliser, and the wire
   bytes one delivered copy carries (0 for non-wire shapes).  The n=64
   rows double as the no-regression guard for small workloads.  The
   member-count sweep below compares BSS's O(n) causal metadata against
   PC-broadcast's O(1) headers across group sizes.
   CAUSALB_BENCH_QUOTA_MS shrinks the per-measurement budget for CI smoke
   runs; CAUSALB_BENCH_MEMBERS_MAX caps the member sweep's group sizes. *)

module Label = Causalb_graph.Label
module Dep = Causalb_graph.Dep
module Vc = Causalb_clock.Vector_clock
module Message = Causalb_core.Message
module Osend = Causalb_core.Osend
module Bss = Causalb_core.Bss
module Asend = Causalb_core.Asend
module Engine = Causalb_sim.Engine
module Net = Causalb_net.Net
module Rosend = Causalb_reference.Osend
module Rbss = Causalb_reference.Bss
module Rasend = Causalb_reference.Asend
module Rnet = Causalb_reference.Net
module Wire = Causalb_util.Wire
module Json = Causalb_util.Json
module Codec = Causalb_core.Codec
module Pcb = Causalb_core.Pcbcast
module Sgroup = Causalb_stackbase.Sgroup
module Metrics = Causalb_stackbase.Metrics

let quota_ms =
  match Sys.getenv_opt "CAUSALB_BENCH_QUOTA_MS" with
  | Some s -> ( try max 1 (int_of_string s) with _ -> 200)
  | None -> 200

type sample = { ns : float; minor_words : float; major_words : float }

(* Adaptive CPU timing: double the repetition count until one batch fills
   the quota, then report per-run figures from that batch.  One warm-up
   run is discarded; GC words are read around the same loop the timing
   uses, so time and allocation describe the same executions. *)
let measure f =
  f ();
  let quota = float_of_int quota_ms /. 1000.0 in
  let rec go reps =
    let g0 = Gc.quick_stat () in
    let t0 = Sys.time () in
    for _ = 1 to reps do
      f ()
    done;
    let dt = Sys.time () -. t0 in
    let g1 = Gc.quick_stat () in
    if dt >= quota then
      let per x = x /. float_of_int reps in
      {
        ns = per dt *. 1e9;
        minor_words = per (g1.Gc.minor_words -. g0.Gc.minor_words);
        major_words = per (g1.Gc.major_words -. g0.Gc.major_words);
      }
    else go (reps * 2)
  in
  go 1

let lbl i = Label.make ~origin:(i mod 8) ~seq:(i / 8) ()

let root_lbl = Label.make ~origin:9 ~seq:0 ()

(* --- shape inputs, built once per size outside the timed region --- *)

let chain_msgs n =
  Array.init n (fun i ->
      Message.make ~label:(lbl i) ~sender:0
        ~dep:(if i = 0 then Dep.null else Dep.after (lbl (i - 1)))
        0)

(* first half: fan children of the missing root; second half: independent
   traffic delivered while the fan is parked; root last *)
let wide_msgs n =
  let half = n / 2 in
  let children =
    Array.init half (fun i ->
        Message.make ~label:(lbl i) ~sender:0 ~dep:(Dep.after root_lbl) 0)
  in
  let independent =
    Array.init (n - half) (fun i ->
        Message.make ~label:(lbl (half + i)) ~sender:1 ~dep:Dep.null 0)
  in
  let root = Message.make ~label:root_lbl ~sender:2 ~dep:Dep.null 0 in
  (children, independent, root)

let bss_envs n =
  Array.init n (fun i ->
      {
        Bss.sender = 1;
        stamp = Vc.of_array [| 0; i + 1 |];
        tag = "";
        payload = 0;
      })

let counted_msgs n =
  Array.init n (fun i ->
      Message.make ~label:(lbl i) ~sender:(i mod 8) ~dep:Dep.null i)

(* --- the before/after pairs; each returns (before, after, units) where
   [units] is the logical operations one run performs --- *)

let osend_chain n =
  let msgs = chain_msgs n in
  let before () =
    let m = Rosend.create ~id:0 () in
    for i = n - 1 downto 0 do
      Rosend.receive m msgs.(i)
    done
  in
  let after () =
    let m = Osend.create ~id:0 () in
    for i = n - 1 downto 0 do
      Osend.receive m msgs.(i)
    done
  in
  (before, after, float_of_int n, 0.0)

let osend_wide n =
  let children, independent, root = wide_msgs n in
  let before () =
    let m = Rosend.create ~id:0 () in
    Array.iter (Rosend.receive m) children;
    Array.iter (Rosend.receive m) independent;
    Rosend.receive m root
  in
  let after () =
    let m = Osend.create ~id:0 () in
    Array.iter (Osend.receive m) children;
    Array.iter (Osend.receive m) independent;
    Osend.receive m root
  in
  (before, after, float_of_int n, 0.0)

let bss_chain n =
  let envs = bss_envs n in
  let before () =
    let m = Rbss.member ~id:0 ~group_size:2 () in
    for i = n - 1 downto 0 do
      Rbss.receive m envs.(i)
    done
  in
  let after () =
    let m = Bss.member ~id:0 ~group_size:2 () in
    for i = n - 1 downto 0 do
      Bss.receive m envs.(i)
    done
  in
  (before, after, float_of_int n, 0.0)

let counted_batch n =
  let msgs = counted_msgs n in
  let before () =
    let m = Rasend.Counted.create ~batch_size:n () in
    Array.iter (Rasend.Counted.on_causal_deliver m) msgs
  in
  let after () =
    let m = Asend.Counted.create ~batch_size:n () in
    Array.iter (Asend.Counted.on_causal_deliver m) msgs
  in
  (before, after, float_of_int n, 0.0)

(* Broadcast fan-out through the simulated transport, tracing off — the
   configuration every experiment driver runs in.  [n] is scaled into
   rounds of one broadcast over an 8-node group; each round delivers 8
   copies (self included), so units = delivered messages per run. *)
let net_bcast n =
  let nodes = 8 in
  let rounds = max 1 (n / nodes) in
  let delivered = rounds * nodes in
  let before () =
    let e = Engine.create ~seed:7 () in
    let net = Rnet.create e ~nodes () in
    let sink = ref 0 in
    for i = 0 to nodes - 1 do
      Rnet.set_handler net i (fun ~src:_ _ -> incr sink)
    done;
    for r = 0 to rounds - 1 do
      Rnet.broadcast net ~src:(r mod nodes) r;
      Engine.run e
    done;
    assert (!sink = delivered)
  in
  let after () =
    let e = Engine.create ~seed:7 () in
    let net = Net.create e ~nodes () in
    let sink = ref 0 in
    for i = 0 to nodes - 1 do
      Net.set_handler net i (fun ~src:_ _ -> incr sink)
    done;
    for r = 0 to rounds - 1 do
      Net.broadcast net ~src:(r mod nodes) r;
      Engine.run e
    done;
    assert (!sink = delivered)
  in
  (before, after, float_of_int delivered, 0.0)

(* Vector-clock receipt over a 32-wide group, one stamp per unit.  The
   before side is the PR 3 composition (merge allocates, tick copies);
   the after side mutates a process-owned clock in place. *)
let clock_receive n =
  let width = 32 in
  let me = 0 in
  let remotes =
    Array.init n (fun i ->
        Vc.of_array (Array.init width (fun j -> (i * 7 + j * 3) mod 50)))
  in
  let before () =
    let local = ref (Vc.create width) in
    for i = 0 to n - 1 do
      local := Vc.tick (Vc.merge !local remotes.(i)) me
    done
  in
  let after () =
    let local = Vc.create width in
    for i = 0 to n - 1 do
      Vc.receive_into ~local ~remote:remotes.(i) ~me
    done
  in
  (before, after, float_of_int n, 0.0)

(* --- wire codec shapes (new in PR 8); both sides are live code, the
   "before" is the serialisation strategy the wire codec replaces --- *)

let wire_env i : string Bss.envelope =
  {
    Bss.sender = i mod 8;
    stamp = Vc.of_array [| i; i * 2 mod 97; 3; i mod 5; i mod 11 |];
    tag = (if i mod 3 = 0 then "t" ^ string_of_int i else "");
    payload = "payload-" ^ string_of_int (i mod 100);
  }

let json_of_env (e : string Bss.envelope) =
  Json.Obj
    [
      ("sender", Json.Num (float_of_int e.sender));
      ( "stamp",
        Json.List
          (Array.to_list (Vc.to_array e.stamp)
          |> List.map (fun v -> Json.Num (float_of_int v))) );
      ("tag", Json.Str e.tag);
      ("payload", Json.Str e.payload);
    ]

let env_of_json j : string Bss.envelope =
  let get k = Option.get (Json.member k j) in
  {
    Bss.sender = Json.get_int (get "sender");
    stamp =
      Vc.of_array
        (Array.of_list (List.map Json.get_int (Json.get_list (get "stamp"))));
    tag = Json.get_string (get "tag");
    payload = Json.get_string (get "payload");
  }

let wire_enc = Codec.put_envelope Codec.put_str

let wire_dec = Codec.get_envelope Codec.get_str

let wire_codec_bss = Codec.bss Codec.put_str Codec.get_str

(* Average binary frame size over the shape's envelopes — the bytes one
   delivered copy carries, reported as the row's [wire_bytes_per_unit]. *)
let avg_frame_bytes envs =
  let pool = Wire.pool () in
  let total =
    Array.fold_left
      (fun a e -> a + Wire.length (Codec.encode pool wire_enc e))
      0 envs
  in
  float_of_int total /. float_of_int (Array.length envs)

let wire_codec n =
  let envs = Array.init n wire_env in
  let sink = ref 0 in
  let before () =
    sink := 0;
    for i = 0 to n - 1 do
      let s = Json.to_string (json_of_env envs.(i)) in
      let e = env_of_json (Json.of_string s) in
      sink := !sink + e.Bss.sender
    done
  in
  let pool = Wire.pool () in
  let after () =
    sink := 0;
    for i = 0 to n - 1 do
      let frame = Codec.encode pool wire_enc envs.(i) in
      let e = Codec.decode wire_dec frame in
      sink := !sink + e.Bss.sender
    done
  in
  (before, after, float_of_int n, avg_frame_bytes envs)

let wire_fanout n =
  let nodes = 8 in
  let rounds = max 1 (n / nodes) in
  let delivered = rounds * nodes in
  let envs = Array.init rounds wire_env in
  let pool = Wire.pool () in
  let sink = ref 0 in
  let before () =
    sink := 0;
    for r = 0 to rounds - 1 do
      for _dst = 1 to nodes do
        let frame = Codec.encode pool wire_enc envs.(r) in
        let e = Codec.decode wire_dec frame in
        sink := !sink + e.Bss.sender
      done
    done
  in
  let after () =
    sink := 0;
    for r = 0 to rounds - 1 do
      let fr = Sgroup.encode pool wire_codec_bss envs.(r) in
      for _dst = 1 to nodes do
        let e = Sgroup.view fr ~dec:wire_dec in
        sink := !sink + e.Bss.sender
      done
    done
  in
  (before, after, float_of_int delivered, avg_frame_bytes envs)

(* --- member-count sweep (new in PR 10): BSS's O(n) causal metadata vs
   PC-broadcast's O(1) ---------------------------------------------------

   Micro rows isolate one member's receive path: a founder consumes k
   in-order messages from one peer.  The BSS side merges an n-entry
   vector stamp per delivery and its header codec ships the whole
   vector; the PC side advances one cursor and ships (origin, seq, tag)
   varints whatever the group size.  Member construction sits inside the
   timed run (BSS's clock is itself O(n) state), amortised over k
   deliveries.

   E2e rows run whole groups with a codec through the simulated
   transport — full-mesh BSS against PC flooding on a degree-8 overlay
   — and read metadata bytes from the control/payload split the
   metrics layer records per copy, so the numbers are the accounting
   real runs report, not a codec-only estimate.

   CAUSALB_BENCH_MEMBERS_MAX caps the sweep (CI smoke uses a small cap;
   the committed artifact runs the full 1k/10k/100k micro and 16..1024
   e2e sizes). *)

let members_max =
  match Sys.getenv_opt "CAUSALB_BENCH_MEMBERS_MAX" with
  | Some s -> ( try max 16 (int_of_string s) with _ -> 102_400)
  | None -> 102_400

let micro_member_sizes =
  List.filter (fun n -> n <= members_max) [ 1_024; 10_240; 102_400 ]

let e2e_member_sizes =
  List.filter (fun n -> n <= members_max) [ 16; 64; 256; 1_024 ]

let member_micro n =
  (* deliveries per run: enough to amortise member construction, capped
     so the n-wide stamp array stays within memory at n = 100k *)
  let k = max 16 (min 256 (2_097_152 / n)) in
  let bss_envs =
    Array.init k (fun i ->
        {
          Bss.sender = 1;
          stamp =
            Vc.of_array (Array.init n (fun j -> if j = 1 then i + 1 else 0));
          tag = "";
          payload = 0;
        })
  in
  let pc_envs =
    let sender = Pcb.member ~id:1 ~send:(fun _ ~dst:_ -> ()) () in
    Array.init k (fun _ -> fst (Pcb.next_envelope sender 0))
  in
  let bss () =
    let m = Bss.member ~id:0 ~group_size:n () in
    Array.iter (Bss.receive m) bss_envs
  in
  let pc () =
    (* adopt-first baseline: the first copy from origin 1 is seq 0, so
       every subsequent seq delivers straight through — no peers, no
       flooding, just the cursor walk *)
    let m = Pcb.member ~id:0 ~send:(fun _ ~dst:_ -> ()) () in
    Array.iter
      (fun e -> Pcb.receive m ~src:1 ~emit:(fun ~dst:_ -> ()) (Pcb.Env e))
      pc_envs
  in
  let pool = Wire.pool () in
  let bss_meta =
    float_of_int
      (Wire.length (Codec.encode pool Codec.put_envelope_header bss_envs.(k - 1)))
  in
  let pc_meta =
    float_of_int
      (Wire.length (Codec.encode pool Codec.put_pc_header pc_envs.(k - 1)))
  in
  let b = measure bss in
  let p = measure pc in
  let fk = float_of_int k in
  {
    Bench_out.mode = "micro";
    members = n;
    bss_meta_bytes = bss_meta;
    pc_meta_bytes = pc_meta;
    bss_ns = b.ns /. fk;
    pc_ns = p.ns /. fk;
    bss_minor_words = b.minor_words /. fk;
    pc_minor_words = p.minor_words /. fk;
  }

let member_e2e n =
  let rounds = 4 in
  let degree = 8 in
  let enc = Codec.put_int and dec = Codec.get_int in
  let bss_run () =
    let e = Engine.create ~seed:11 () in
    let net = Net.create e ~nodes:n ~fifo:true () in
    let g = Bss.Group.create ~codec:(Codec.bss enc dec) net () in
    for r = 0 to rounds - 1 do
      Bss.Group.bcast g ~src:(r mod n) r;
      Engine.run e
    done;
    g
  in
  let pc_run () =
    let e = Engine.create ~seed:11 () in
    let net = Net.create e ~nodes:n ~fifo:true () in
    let g = Pcb.Group.create ~degree ~codec:(Codec.pc enc dec) net () in
    for r = 0 to rounds - 1 do
      ignore (Pcb.Group.bcast g ~src:(r mod n) r);
      Engine.run e
    done;
    g
  in
  (* one instrumented run for the byte/delivery counters, then the timed
     loop; runs are deterministic, so the two describe the same work *)
  let split metrics_of =
    let ctrl = ref 0 and delivered = ref 0 in
    for i = 0 to n - 1 do
      let m = metrics_of i in
      ctrl := !ctrl + m.Metrics.control_bytes;
      delivered := !delivered + m.Metrics.delivered
    done;
    (float_of_int !ctrl /. float_of_int !delivered, float_of_int !delivered)
  in
  let bss_meta, bss_delivered =
    let g = bss_run () in
    split (fun i -> Bss.metrics (Bss.Group.member g i))
  in
  let pc_meta, pc_delivered =
    let g = pc_run () in
    split (fun i -> Pcb.metrics (Pcb.Group.member g i))
  in
  let b = measure (fun () -> ignore (bss_run ())) in
  let p = measure (fun () -> ignore (pc_run ())) in
  {
    Bench_out.mode = "e2e";
    members = n;
    bss_meta_bytes = bss_meta;
    pc_meta_bytes = pc_meta;
    bss_ns = b.ns /. bss_delivered;
    pc_ns = p.ns /. pc_delivered;
    bss_minor_words = b.minor_words /. bss_delivered;
    pc_minor_words = p.minor_words /. pc_delivered;
  }

let collect_members () =
  let one make n =
    let (r : Bench_out.member_row) = make n in
    Printf.printf
      "  %-5s n=%-6d meta B/delivery %8.1f vs %5.1f   ns/delivery %9.0f \
       vs %9.0f\n\
       %!"
      r.Bench_out.mode n r.Bench_out.bss_meta_bytes r.Bench_out.pc_meta_bytes
      r.Bench_out.bss_ns r.Bench_out.pc_ns;
    r
  in
  List.map (one member_micro) micro_member_sizes
  @ List.map (one member_e2e) e2e_member_sizes

let print_members_table rows =
  let t =
    Causalb_util.Table.create
      ~title:
        "member-count scaling (BSS O(n) vs PC O(1), per delivered message)"
      ~columns:
        [ "mode"; "members"; "bss meta B"; "pc meta B"; "bss ns"; "pc ns";
          "bss minor w"; "pc minor w" ]
  in
  List.iter
    (fun (r : Bench_out.member_row) ->
      Causalb_util.Table.add_row t
        [
          r.mode;
          string_of_int r.members;
          Causalb_util.Table.fmt_float ~digits:1 r.bss_meta_bytes;
          Causalb_util.Table.fmt_float ~digits:1 r.pc_meta_bytes;
          Causalb_util.Table.fmt_float ~digits:0 r.bss_ns;
          Causalb_util.Table.fmt_float ~digits:0 r.pc_ns;
          Causalb_util.Table.fmt_float ~digits:1 r.bss_minor_words;
          Causalb_util.Table.fmt_float ~digits:1 r.pc_minor_words;
        ])
    rows;
  Causalb_util.Table.print t

let shapes =
  [
    ("osend.chain", osend_chain);
    ("osend.wide", osend_wide);
    ("bss.chain", bss_chain);
    ("counted.batch", counted_batch);
    ("net.bcast", net_bcast);
    ("clock.receive", clock_receive);
    ("wire.codec", wire_codec);
    ("wire.fanout", wire_fanout);
  ]

let sizes = [ 64; 512; 4096 ]

let collect () =
  Printf.printf "(per-measurement quota: %d ms)\n%!" quota_ms;
  List.concat_map
    (fun (name, make) ->
      List.map
        (fun n ->
          let before, after, units, wire_bytes_per_unit = make n in
          let b = measure before in
          let a = measure after in
          let r =
            {
              Bench_out.name;
              n;
              units;
              before_ns = b.ns;
              after_ns = a.ns;
              before_minor_words = b.minor_words;
              after_minor_words = a.minor_words;
              before_major_words = b.major_words;
              after_major_words = a.major_words;
              wire_bytes_per_unit;
            }
          in
          Printf.printf
            "  %-14s n=%-5d before=%12.0fns after=%12.0fns speedup=%6.2fx \
             minor_w/unit %8.1f -> %8.1f\n\
             %!"
            name n b.ns a.ns (Bench_out.speedup r) (b.minor_words /. units)
            (a.minor_words /. units);
          r)
        sizes)
    shapes

let print_table rows =
  let t =
    Causalb_util.Table.create
      ~title:"scaling (ns and minor-heap words per workload run)"
      ~columns:
        [ "shape"; "n"; "before ns"; "after ns"; "speedup";
          "minor w/unit before"; "minor w/unit after"; "saved";
          "wire B/unit" ]
  in
  List.iter
    (fun (r : Bench_out.row) ->
      Causalb_util.Table.add_row t
        [
          r.name;
          string_of_int r.n;
          Causalb_util.Table.fmt_float ~digits:0 r.before_ns;
          Causalb_util.Table.fmt_float ~digits:0 r.after_ns;
          Printf.sprintf "%.2fx" (Bench_out.speedup r);
          Causalb_util.Table.fmt_float ~digits:1
            (r.before_minor_words /. r.units);
          Causalb_util.Table.fmt_float ~digits:1
            (r.after_minor_words /. r.units);
          Causalb_util.Table.fmt_pct (Bench_out.minor_words_saved r);
          (if r.wire_bytes_per_unit > 0.0 then
             Causalb_util.Table.fmt_float ~digits:1 r.wire_bytes_per_unit
           else "-");
        ])
    rows;
  Causalb_util.Table.print t

let run () =
  print_endline
    "\n================ scaling: frozen reference vs live hot paths \
     ================";
  let rows = collect () in
  print_table rows;
  print_endline
    "\n================ member-count scaling: BSS O(n) vs PC O(1) \
     ================";
  let members = collect_members () in
  print_members_table members;
  let out = Bench_out.write ~quota_ms ~members ~rows ~sweeps:[] () in
  Printf.printf "wrote %s\n%!" out
