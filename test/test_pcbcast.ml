(* PC-broadcast: constant-size causal metadata + dynamic membership.

   Five layers of assurance:

   1. Member mechanics: FIFO parking (a future seq waits, never skips),
      per-origin dedup of flooded duplicates, the adopt-first baseline.
   2. Static groups: every run audited by the offline causal oracle
      (FIFO + causal against the extracted R(M)), on full-mesh and
      sparse overlays, which also proves the overlay connected.
   3. Dynamic membership: π_lock joins see exactly the post-join
      traffic, leaves prune without disturbing survivors, and the churn
      driver's oracle stays clean on a mixed schedule.
   4. PC vs BSS: same seed, same workload — both causal engines deliver
      the same message sets at every node (the orders may legitimately
      interleave concurrent messages differently, so sets, not bytes).
   5. Framing under churn: with its codec, a group running joins and
      leaves delivers exactly what the plain group delivers. *)

module Engine = Causalb_sim.Engine
module Latency = Causalb_sim.Latency
module Net = Causalb_net.Net
module Nemesis = Causalb_net.Nemesis
module Pcb = Causalb_core.Pcbcast
module Codec = Causalb_core.Codec
module Dep = Causalb_graph.Dep
module D = Causalb_harness.Drivers

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let w ops = { D.ops; spacing = 0.5; mix = D.Fixed_window 4 }

(* --- 1. member mechanics --- *)

let silent _ ~dst:_ = ()

(* what a standalone member's flood forwards goes nowhere *)
let drop ~dst:_ = ()

let test_parking_restores_fifo () =
  let sender = Pcb.member ~id:1 ~send:silent () in
  let e0, _ = Pcb.next_envelope sender ~tag:"a" 0 in
  let e1, _ = Pcb.next_envelope sender ~tag:"b" 1 in
  let m = Pcb.member ~id:0 ~send:silent () in
  Pcb.init_static m ~n:2 ~degree:None;
  Pcb.receive m ~src:1 ~emit:drop (Pcb.Env e1);
  check_int "future seq parks" 0 (Pcb.delivered_count m);
  check_int "one parked copy" 1 (Pcb.pending_count m);
  Pcb.receive m ~src:1 ~emit:drop (Pcb.Env e0);
  check_int "gap filled, both delivered" 2 (Pcb.delivered_count m);
  check_int "nothing left parked" 0 (Pcb.pending_count m)

let test_duplicate_copies_deliver_once () =
  let sender = Pcb.member ~id:1 ~send:silent () in
  let e0, _ = Pcb.next_envelope sender 0 in
  let m = Pcb.member ~id:0 ~send:silent () in
  Pcb.init_static m ~n:2 ~degree:None;
  (* the same physical message arrives on two links, as flooding makes
     it do — the per-origin cursor must deliver exactly one copy *)
  Pcb.receive m ~src:1 ~emit:drop (Pcb.Env e0);
  Pcb.receive m ~src:2 ~emit:drop (Pcb.Env e0);
  check_int "one delivery" 1 (Pcb.delivered_count m)

let test_adopt_first_baseline () =
  (* an unknown origin's first-seen seq becomes the cursor: a joiner
     starts mid-stream without demanding unreachable history *)
  let sender = Pcb.member ~id:1 ~send:silent () in
  for _ = 1 to 5 do
    ignore (Pcb.next_envelope sender 0)
  done;
  let e5, _ = Pcb.next_envelope sender 0 in
  let e6, _ = Pcb.next_envelope sender 0 in
  let m = Pcb.member ~id:0 ~send:silent () in
  Pcb.receive m ~src:1 ~emit:drop (Pcb.Env e5);
  Pcb.receive m ~src:1 ~emit:drop (Pcb.Env e6);
  check_int "stream adopted mid-flight" 2 (Pcb.delivered_count m)

(* --- 2. static groups under the oracle --- *)

let test_static_runs_oracle_clean () =
  List.iter
    (fun seed ->
      let r = D.run_pc ~seed ~replicas:5 (w 40) in
      check "static oracle clean" true r.D.pc_checks_ok;
      check_int "no loss" 0 r.D.pc_lost;
      check_int "membership stable" 5 r.D.pc_members;
      check_int "every member delivered every op" (5 * 41) r.D.pc_delivered)
    [ 3; 17; 2026 ]

let test_sparse_overlay_reaches_everyone () =
  (* flooding on the ring+chords overlay must reach all members — a
     delivery count equal to n per broadcast proves connectivity *)
  let n = 24 in
  let e = Engine.create ~seed:7 () in
  let net = Net.create e ~nodes:n ~latency:Latency.lan ~fifo:true () in
  let g =
    Pcb.Group.create ~degree:4 ~codec:(Codec.pc Codec.put_int Codec.get_int)
      net ()
  in
  for i = 0 to 5 do
    Engine.schedule_at e ~time:(float_of_int i) (fun () ->
        ignore (Pcb.Group.bcast g ~src:(i mod n) ~tag:(Printf.sprintf "op%d" i) i))
  done;
  Engine.run e;
  for i = 0 to n - 1 do
    check_int "member saw all broadcasts" 6
      (List.length (Pcb.Group.delivered_tags g i))
  done

(* --- 3. dynamic membership --- *)

let test_join_sees_post_join_traffic () =
  let e = Engine.create ~seed:5 () in
  let net = Net.create e ~nodes:3 ~fifo:true () in
  let g = Pcb.Group.create net () in
  Engine.schedule_at e ~time:1.0 (fun () ->
      ignore (Pcb.Group.bcast g ~src:0 ~tag:"pre" 0));
  Engine.schedule_at e ~time:5.0 (fun () ->
      ignore (Pcb.Group.join g ~contact:0));
  Engine.schedule_at e ~time:10.0 (fun () ->
      ignore (Pcb.Group.bcast g ~src:1 ~tag:"post" 1));
  Engine.run e;
  check_int "group grew" 4 (Pcb.Group.size g);
  let joiner = Pcb.Group.member g 3 in
  check "joiner saw post-join traffic" true
    (List.mem "post" (Pcb.delivered_tags joiner));
  check "joiner missed pre-join history" true
    (not (List.mem "pre" (Pcb.delivered_tags joiner)));
  List.iter
    (fun i ->
      check "founders saw both" true
        (List.mem "pre" (Pcb.Group.delivered_tags g i)
        && List.mem "post" (Pcb.Group.delivered_tags g i)))
    [ 0; 1; 2 ]

let test_leave_prunes_without_disturbing_survivors () =
  let e = Engine.create ~seed:6 () in
  let net = Net.create e ~nodes:4 ~fifo:true () in
  let g = Pcb.Group.create net () in
  Engine.schedule_at e ~time:1.0 (fun () ->
      ignore (Pcb.Group.bcast g ~src:2 ~tag:"early" 0));
  Engine.schedule_at e ~time:5.0 (fun () -> Pcb.Group.leave g 2);
  Engine.schedule_at e ~time:10.0 (fun () ->
      ignore (Pcb.Group.bcast g ~src:0 ~tag:"late" 1));
  Engine.run e;
  check "alive excludes the departed" true (Pcb.Group.alive g = [ 0; 1; 3 ]);
  List.iter
    (fun i ->
      check "survivors saw the late broadcast" true
        (List.mem "late" (Pcb.Group.delivered_tags g i)))
    [ 0; 1; 3 ];
  check "departed member saw nothing new" true
    (not (List.mem "late" (Pcb.Group.delivered_tags g 2)))

let test_churn_schedule_oracle_clean () =
  let nemesis =
    [
      { Nemesis.at = 3.0; action = Nemesis.Join { contact = 0 } };
      { Nemesis.at = 8.0; action = Nemesis.Leave 1 };
    ]
  in
  let r = D.run_pc ~seed:9 ~nemesis ~replicas:4 (w 30) in
  check "churn oracle clean" true r.D.pc_checks_ok;
  check_int "one join" 1 (List.length r.D.pc_joined);
  check "the scheduled leave happened" true (r.D.pc_left = [ 1 ]);
  check_int "peak membership" 5 r.D.pc_members

(* --- 4. PC vs BSS on the same workload --- *)

(* Both engines promise causal delivery; on a loss-free static group
   they must deliver the same message SET at every node.  The orders
   may interleave concurrent messages differently (different metadata,
   different admissible schedules), so the comparison is per-node sets,
   deliberately not byte-for-byte transcripts. *)
let test_pc_vs_bss_same_delivered_sets () =
  let w = { Framed_table.nodes = 4; ops = 32; dep = (fun _ _ -> Dep.null) } in
  let nets =
    {
      Framed_table.make =
        (fun e -> Net.create e ~nodes:w.Framed_table.nodes ~latency:Latency.lan ());
    }
  in
  List.iter
    (fun seed ->
      let sets (e : Framed_table.engine) =
        let r = e.Framed_table.run ~framed:true w nets ~seed in
        List.map (List.sort compare) r.Framed_table.delivered
      in
      let bss = sets Framed_table.bss and pc = sets Framed_table.pc in
      let all = List.sort compare (List.init w.Framed_table.ops Framed_table.tag) in
      check "bss delivered everything everywhere" true
        (List.for_all (( = ) all) bss);
      check "pc delivered everything everywhere" true
        (List.for_all (( = ) all) pc);
      check "pc sets = bss sets" true (pc = bss))
    [ 2; 13; 77 ]

(* --- 5. framing under churn --- *)

(* A group with a codec runs the same π_lock join/leave protocol as the
   plain group: Lock, Unlock and Joined frames are encoded like any
   other traffic.  Same seed, same churn schedule: every member —
   joiners included — must deliver the same tags in the same order. *)
let churn_run ~framed seed =
  let e = Engine.create ~seed () in
  let net = Net.create e ~nodes:4 ~latency:Latency.lan ~fifo:true () in
  let codec = if framed then Some (Codec.pc Codec.put_int Codec.get_int) else None in
  let g = Pcb.Group.create ?codec net () in
  Nemesis.install ~engine:e
    ~partition:(fun cells -> Net.partition net cells)
    ~heal:(fun () -> Net.heal net)
    ~set_fault:(fun f -> Net.set_fault net f)
    ~join:(fun ~contact -> ignore (Pcb.Group.join g ~contact))
    ~leave:(fun node -> Pcb.Group.leave g node)
    [
      { Nemesis.at = 3.0; action = Nemesis.Join { contact = 0 } };
      { Nemesis.at = 8.0; action = Nemesis.Leave 1 };
      { Nemesis.at = 11.0; action = Nemesis.Join { contact = 2 } };
    ];
  for i = 0 to 39 do
    Engine.schedule_at e ~time:(0.5 *. float_of_int i) (fun () ->
        match Pcb.Group.alive g with
        | [] -> ()
        | al ->
          let src = List.nth al (i mod List.length al) in
          ignore (Pcb.Group.bcast g ~src ~tag:(Printf.sprintf "op%d" i) i))
  done;
  Engine.run e;
  (List.init (Pcb.Group.size g) (Pcb.Group.delivered_tags g), g)

let test_framed_churn_equals_plain () =
  List.iter
    (fun seed ->
      let plain, _ = churn_run ~framed:false seed in
      let framed, g = churn_run ~framed:true seed in
      check_int "both joins happened" 6 (List.length framed);
      check "framed tags = plain tags at every member" true (framed = plain);
      let joiner = List.nth framed 4 in
      check "first joiner delivered post-join traffic" true
        (List.mem "op39" joiner && not (List.mem "op0" joiner));
      check "joiner's links carried frames" true
        ((Pcb.metrics (Pcb.Group.member g 5)).Causalb_stackbase.Metrics.wire_bytes
        > 0))
    [ 5; 9; 2026 ]

let () =
  Alcotest.run "pcbcast"
    [
      ( "member",
        [
          Alcotest.test_case "parking restores fifo" `Quick
            test_parking_restores_fifo;
          Alcotest.test_case "duplicates deliver once" `Quick
            test_duplicate_copies_deliver_once;
          Alcotest.test_case "adopt-first baseline" `Quick
            test_adopt_first_baseline;
        ] );
      ( "static groups",
        [
          Alcotest.test_case "oracle clean" `Quick
            test_static_runs_oracle_clean;
          Alcotest.test_case "sparse overlay reaches everyone" `Quick
            test_sparse_overlay_reaches_everyone;
        ] );
      ( "membership",
        [
          Alcotest.test_case "join sees post-join traffic" `Quick
            test_join_sees_post_join_traffic;
          Alcotest.test_case "leave prunes survivors' peers" `Quick
            test_leave_prunes_without_disturbing_survivors;
          Alcotest.test_case "churn schedule oracle clean" `Quick
            test_churn_schedule_oracle_clean;
        ] );
      ( "pc vs bss",
        [
          Alcotest.test_case "same delivered sets" `Quick
            test_pc_vs_bss_same_delivered_sets;
        ] );
      ( "framed",
        [
          Alcotest.test_case "churn framed = plain" `Quick
            test_framed_churn_equals_plain;
        ] );
    ]
