(* Tests for the ordering oracle (lib/check): the trace scan primitives,
   the four offline checkers on hand-built and simulated traces, the
   dependency-spec lint, and the mutation harness — every composition's
   clean trace must pass, every seeded violation must be caught. *)

module Trace = Causalb_sim.Trace
module Label = Causalb_graph.Label
module Dep = Causalb_graph.Dep
module Depgraph = Causalb_graph.Depgraph
module Diag = Causalb_check.Diag
module Trace_check = Causalb_check.Trace_check
module Spec_lint = Causalb_check.Spec_lint
module Mutate = Causalb_check.Mutate
module Drivers = Causalb_harness.Drivers

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let lbl ?name origin seq = Label.make ?name ~origin ~seq ()

(* --- trace storage primitives ---------------------------------------- *)

let test_trace_array () =
  let t = Trace.create ~capacity:2 () in
  for i = 0 to 99 do
    Trace.record t ~time:(float_of_int i) ~node:(i mod 3) ~kind:Trace.Deliver
      ~tag:(Printf.sprintf "m%d" i) ()
  done;
  check_int "length" 100 (Trace.length t);
  check_int "get 0 node" 0 (Trace.get t 0).Trace.node;
  check "get 99 tag" true ((Trace.get t 99).Trace.tag = "m99");
  let n = ref 0 in
  Trace.iter t (fun _ -> incr n);
  check_int "iter visits all" 100 !n;
  let sum = Trace.fold t ~init:0.0 ~f:(fun acc r -> acc +. r.Trace.time) in
  check "fold sums times" true (sum = 4950.0);
  check "get out of range" true
    (try
       ignore (Trace.get t 100);
       false
     with Invalid_argument _ -> true)

let test_deliveries_include_release () =
  let t = Trace.create () in
  Trace.record t ~time:1.0 ~node:0 ~kind:Trace.Deliver ~tag:"a" ();
  Trace.record t ~time:2.0 ~node:0 ~kind:Trace.Deliver ~tag:"b" ();
  Trace.record t ~time:3.0 ~node:0 ~kind:Trace.Release ~tag:"b" ();
  Trace.record t ~time:4.0 ~node:0 ~kind:Trace.Release ~tag:"a" ();
  let tags rs = List.map (fun r -> r.Trace.tag) rs in
  (* both kinds stay visible: the deliver→release pairing *)
  check "delivers surfaced" true
    (tags (Trace_check.deliver_records t ~node:0) = [ "a"; "b" ]);
  (* the application-visible order is the Release sequence when present *)
  check "release_records prefers releases" true
    (tags (Trace_check.release_records t ~node:0) = [ "b"; "a" ]);
  let t2 = Trace.create () in
  Trace.record t2 ~time:1.0 ~node:0 ~kind:Trace.Deliver ~tag:"a" ();
  check "release_records falls back to delivers" true
    (tags (Trace_check.release_records t2 ~node:0) = [ "a" ])

(* --- depgraph analysis helpers ---------------------------------------- *)

let test_graph_helpers () =
  let a = lbl 0 0 and b = lbl 1 0 and c = lbl 2 0 and ghost = lbl 3 9 in
  let g = Depgraph.create () in
  Depgraph.add g a ~dep:Dep.null;
  Depgraph.add g b ~dep:(Dep.after a);
  Depgraph.add g c ~dep:(Dep.after_all [ b; ghost ]);
  check "missing_parents names the ghost" true
    (Depgraph.missing_parents g c = [ ghost ]);
  check "no missing parents for b" true (Depgraph.missing_parents g b = []);
  check "acyclic" true (Depgraph.find_cycle g = None);
  (match Depgraph.shortest_path g a c with
  | Some [ x; y; z ] ->
    check "path a->b->c" true
      (Label.equal x a && Label.equal y b && Label.equal z c)
  | _ -> Alcotest.fail "expected a 3-label path");
  check "no reverse path" true (Depgraph.shortest_path g c a = None);
  (* forward references make cycles expressible: the lint must see them *)
  let g2 = Depgraph.create () in
  let x = lbl 0 1 and y = lbl 1 1 in
  Depgraph.add g2 x ~dep:(Dep.after y);
  Depgraph.add g2 y ~dep:(Dep.after x);
  match Depgraph.find_cycle g2 with
  | Some (first :: _ :: _ as path) ->
    check "cycle closes on itself" true
      (Label.equal first (List.nth path (List.length path - 1)))
  | _ -> Alcotest.fail "expected a cycle"

(* --- checkers on hand-built traces ------------------------------------ *)

(* Two messages, b depends on a; node 0 delivers them in order, node 1
   delivers b first: the causal checker must name node 1, both records,
   and the a -> b chain. *)
let test_causal_checker () =
  let a = lbl ~name:"a" 0 0 and b = lbl ~name:"b" 1 0 in
  let g = Depgraph.create () in
  Depgraph.add g a ~dep:Dep.null;
  Depgraph.add g b ~dep:(Dep.after a);
  let t = Trace.create () in
  Trace.record t ~time:1.0 ~node:0 ~kind:Trace.Deliver ~tag:"a" ();
  Trace.record t ~time:2.0 ~node:0 ~kind:Trace.Deliver ~tag:"b" ();
  Trace.record t ~time:1.0 ~node:1 ~kind:Trace.Deliver ~tag:"b" ();
  Trace.record t ~time:2.0 ~node:1 ~kind:Trace.Deliver ~tag:"a" ();
  match Trace_check.causal ~graph:g t with
  | [ d ] ->
    check "names node 1" true (d.Diag.node = Some 1);
    check_int "both records cited" 2 (List.length d.Diag.records);
    check "chain a->b" true
      (List.map Label.name d.Diag.chain = [ "a"; "b" ])
  | ds -> Alcotest.fail (Printf.sprintf "expected 1 diag, got %d" (List.length ds))

let test_fifo_checker () =
  let a = lbl ~name:"a" 0 0 and b = lbl ~name:"b" 0 1 in
  let g = Depgraph.create () in
  Depgraph.add g a ~dep:Dep.null;
  Depgraph.add g b ~dep:Dep.null;
  let t = Trace.create () in
  Trace.record t ~time:1.0 ~node:0 ~kind:Trace.Deliver ~tag:"b" ();
  Trace.record t ~time:2.0 ~node:0 ~kind:Trace.Deliver ~tag:"a" ();
  (match Trace_check.fifo ~graph:g t with
  | [ d ] -> check "fifo diag at node 0" true (d.Diag.node = Some 0)
  | _ -> Alcotest.fail "expected exactly one fifo diag");
  let clean = Trace.create () in
  Trace.record clean ~time:1.0 ~node:0 ~kind:Trace.Deliver ~tag:"a" ();
  Trace.record clean ~time:2.0 ~node:0 ~kind:Trace.Deliver ~tag:"b" ();
  check "in-order passes" true (Trace_check.fifo ~graph:g clean = [])

let test_total_order_checker () =
  let a = lbl ~name:"a" 0 0 and b = lbl ~name:"b" 1 0 in
  let s = lbl ~name:"s" 2 0 in
  let g = Depgraph.create () in
  Depgraph.add g a ~dep:Dep.null;
  Depgraph.add g b ~dep:Dep.null;
  Depgraph.add g s ~dep:(Dep.after_all [ a; b ]);
  let rel t node tags =
    List.iteri
      (fun i tag ->
        Trace.record t ~time:(float_of_int i) ~node ~kind:Trace.Release ~tag ())
      tags
  in
  (* same window set, different interior order: windows agree, strict no *)
  let t = Trace.create () in
  rel t 0 [ "a"; "b"; "s" ];
  rel t 1 [ "b"; "a"; "s" ];
  let sync = Label.Set.singleton s in
  check "window agreement holds" true (Trace_check.total_order ~graph:g ~sync t = []);
  check "strict agreement fails" true
    (Trace_check.total_order ~strict:true ~graph:g ~sync:Label.Set.empty t <> []);
  (* an interior op past its sync: window agreement must fail *)
  let t2 = Trace.create () in
  rel t2 0 [ "a"; "b"; "s" ];
  rel t2 1 [ "a"; "s"; "b" ];
  check "migrated interior caught" true
    (Trace_check.total_order ~graph:g ~sync t2 <> [])

let test_stable_checker () =
  let mark t node tag info =
    Trace.record t ~time:1.0 ~node ~kind:Trace.Mark ~tag ~info ()
  in
  let t = Trace.create () in
  mark t 0 "stable:0" "digest=aa";
  mark t 1 "stable:0" "digest=aa";
  check "matching digests pass" true (Trace_check.stable_points t = []);
  let t2 = Trace.create () in
  mark t2 0 "stable:0" "digest=aa";
  mark t2 1 "stable:0" "digest=bb";
  match Trace_check.stable_points t2 with
  | [ d ] -> check_int "both marks cited" 2 (List.length d.Diag.records)
  | _ -> Alcotest.fail "expected one stable-point diag"

(* --- spec lint --------------------------------------------------------- *)

let test_lint () =
  let a = lbl ~name:"a" 0 0 and b = lbl ~name:"b" 1 0 in
  let c = lbl ~name:"c" 2 0 and ghost = lbl ~name:"ghost" 3 9 in
  (* clean chain: no issues *)
  let g = Depgraph.create () in
  Depgraph.add g a ~dep:Dep.null;
  Depgraph.add g b ~dep:(Dep.after a);
  Depgraph.add g c ~dep:(Dep.after b);
  check "clean spec lints clean" true (Spec_lint.lint g = []);
  (* dangling + unsatisfiable *)
  let g = Depgraph.create () in
  Depgraph.add g a ~dep:(Dep.after ghost);
  let names = List.map Spec_lint.issue_name (Spec_lint.lint g) in
  check "dangling flagged" true (List.mem "lint:dangling" names);
  check "unsatisfiable flagged" true (List.mem "lint:unsatisfiable" names);
  (* cycle *)
  let g = Depgraph.create () in
  Depgraph.add g a ~dep:(Dep.after b);
  Depgraph.add g b ~dep:(Dep.after a);
  check "cycle flagged" true
    (List.exists
       (function Spec_lint.Cycle _ -> true | _ -> false)
       (Spec_lint.lint g));
  (* redundant conjunct: c after_all [a; b] while b already requires a *)
  let g = Depgraph.create () in
  Depgraph.add g a ~dep:Dep.null;
  Depgraph.add g b ~dep:(Dep.after a);
  Depgraph.add g c ~dep:(Dep.after_all [ a; b ]);
  check "redundant edge flagged" true
    (List.exists
       (function
         | Spec_lint.Redundant_edge { ancestor; via; _ } ->
           Label.equal ancestor a && Label.equal via b
         | _ -> false)
       (Spec_lint.lint g));
  (* dead alternative: c after_any [a; b] where b happens-after a, so a
     can never be the last-missing alternative that fires *)
  let g = Depgraph.create () in
  Depgraph.add g a ~dep:Dep.null;
  Depgraph.add g b ~dep:(Dep.after a);
  Depgraph.add g c ~dep:(Dep.after_any [ a; b ]);
  check "dead alternative flagged" true
    (List.exists
       (function Spec_lint.Dead_alternative _ -> true | _ -> false)
       (Spec_lint.lint g));
  (* the "dropped edge" bug: remove a label the predicates still name *)
  let g = Depgraph.create () in
  Depgraph.add g a ~dep:Dep.null;
  Depgraph.add g b ~dep:(Dep.after a);
  Depgraph.add g c ~dep:(Dep.after b);
  check "drop_label produces issues" true
    (Spec_lint.lint (Mutate.drop_label g b) <> [])

let test_lint_sends () =
  let a = lbl ~name:"a" 0 0 and b = lbl ~name:"b" 1 0 in
  check "clean send list" true
    (Spec_lint.lint_sends [ (a, Dep.null); (b, Dep.after a) ] = []);
  (* two sends defining the same label, with the positions reported *)
  let issues =
    Spec_lint.lint_sends [ (a, Dep.null); (b, Dep.null); (a, Dep.after b) ]
  in
  check "duplicate flagged with positions" true
    (List.exists
       (function
         | Spec_lint.Duplicate_label { first = 0; second = 2; label } ->
           Label.equal label a
         | _ -> false)
       issues);
  check "stable issue name" true
    (List.mem "lint:duplicate-label" (List.map Spec_lint.issue_name issues));
  check "diag carries the label" true
    (List.exists
       (fun d ->
         d.Diag.check = "lint:duplicate-label" && d.Diag.chain = [ a ])
       (Spec_lint.to_diags issues));
  (* the surviving sends are still linted as a graph *)
  check "survivors linted" true
    (List.mem "lint:dangling"
       (List.map Spec_lint.issue_name
          (Spec_lint.lint_sends [ (a, Dep.after b) ])));
  (* a duplicate whose first definition carries the edges: dropping the
     second must not lose them *)
  let issues =
    Spec_lint.lint_sends [ (a, Dep.null); (b, Dep.after a); (b, Dep.null) ]
  in
  check "only the duplicate reported" true
    (List.for_all
       (function Spec_lint.Duplicate_label _ -> true | _ -> false)
       issues)

(* --- the simulated compositions, clean and mutated --------------------- *)

let all_specs ops =
  [
    Drivers.Fifo_only;
    Drivers.Bss_stack;
    Drivers.Psync_stack;
    Drivers.Osend_stack;
    Drivers.Osend_merge;
    Drivers.Osend_counted (ops + 1);
    Drivers.Osend_sequencer;
  ]

let audit_of ?(seed = 42) ?(replicas = 3) ?(ops = 30) ?(window = 3) spec =
  let w = { Drivers.ops; spacing = 0.5; mix = Drivers.Fixed_window window } in
  let r = Drivers.run_stack ~seed ~replicas ~check:true spec w in
  match r.Drivers.audit with
  | Some a -> (r, a)
  | None -> Alcotest.fail "check run produced no audit"

let test_compositions_pass () =
  List.iter
    (fun spec ->
      let r, a = audit_of spec in
      let name = Drivers.stack_spec_name spec in
      check (name ^ " no diagnostics") true (a.Drivers.diagnostics = []);
      check (name ^ " no lint") true (a.Drivers.lint = []);
      check (name ^ " checks_ok") true r.Drivers.checks_ok;
      check (name ^ " trace recorded") true (Trace.length a.Drivers.trace > 0))
    (all_specs 30)

let test_no_check_no_audit () =
  let w = { Drivers.ops = 10; spacing = 0.5; mix = Drivers.Fixed_window 3 } in
  let r = Drivers.run_stack ~seed:1 ~replicas:2 Drivers.Osend_stack w in
  check "audit absent by default" true (r.Drivers.audit = None)

(* Each mutator plants a violation its checker must catch; the diagnostic
   must cite the offending records by tag. *)
let test_mutations_caught () =
  let _, osend = audit_of Drivers.Osend_stack in
  let _, merge = audit_of Drivers.Osend_merge in
  let _, fifo = audit_of ~replicas:2 Drivers.Fifo_only in
  (match Mutate.reorder_causal ~graph:osend.Drivers.graph osend.Drivers.trace with
  | None -> Alcotest.fail "no causal mutation site"
  | Some (mut, ra, rb) -> (
    match Trace_check.causal ~graph:osend.Drivers.graph mut with
    | [] -> Alcotest.fail "causal checker missed the reordered delivery"
    | d :: _ ->
      let tags = List.map (fun r -> r.Trace.tag) d.Diag.records in
      check "causal diag names the swapped records" true
        (List.mem ra.Trace.tag tags || List.mem rb.Trace.tag tags)));
  (match Mutate.reorder_fifo ~graph:fifo.Drivers.graph fifo.Drivers.trace with
  | None -> Alcotest.fail "no fifo mutation site"
  | Some (mut, _, _) ->
    check "fifo checker objects" true
      (Trace_check.fifo ~graph:fifo.Drivers.graph mut <> []));
  (match Mutate.reorder_release ~graph:merge.Drivers.graph merge.Drivers.trace with
  | None -> Alcotest.fail "no release mutation site"
  | Some (mut, _, _) ->
    check "strict total-order checker objects" true
      (Trace_check.total_order ~strict:true ~graph:merge.Drivers.graph
         ~sync:Label.Set.empty mut
      <> []));
  (match
     Mutate.reorder_release ~sync:osend.Drivers.sync
       ~graph:osend.Drivers.graph osend.Drivers.trace
   with
  | None -> Alcotest.fail "no window mutation site"
  | Some (mut, _, _) ->
    check "window checker objects" true
      (Trace_check.total_order ~graph:osend.Drivers.graph
         ~sync:osend.Drivers.sync mut
      <> []));
  match Mutate.corrupt_mark merge.Drivers.trace with
  | None -> Alcotest.fail "no stable mark to corrupt"
  | Some (mut, victim) -> (
    match Trace_check.stable_points mut with
    | [] -> Alcotest.fail "stable-point checker missed the corrupt digest"
    | d :: _ ->
      check "stable diag names the mark" true
        (List.exists (fun r -> r.Trace.tag = victim.Trace.tag) d.Diag.records))

(* --- properties -------------------------------------------------------- *)

let qtest ?(count = 20) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let params_gen =
  let open QCheck2.Gen in
  int_range 8 40 >>= fun ops ->
  int_range 1 5 >>= fun window ->
  int_range 2 4 >>= fun replicas ->
  int_range 0 10_000 >|= fun seed -> (ops, window, replicas, seed)

(* Random §6.1 workloads over every composition pass every applicable
   checker — the oracle never cries wolf on a correct stack. *)
let prop_clean_workloads =
  qtest ~count:15 "random workloads pass all checkers" params_gen
    (fun (ops, window, replicas, seed) ->
      List.for_all
        (fun spec ->
          let _, a = audit_of ~seed ~replicas ~ops ~window spec in
          a.Drivers.diagnostics = [] && a.Drivers.lint = [])
        (all_specs ops))

(* One swapped delivery on a causal trace is always caught (whenever the
   trace offers an adjacent dependent pair to swap). *)
let prop_mutations_always_caught =
  qtest ~count:15 "swapped deliveries always fail" params_gen
    (fun (ops, window, replicas, seed) ->
      let _, osend = audit_of ~seed ~replicas ~ops ~window Drivers.Osend_stack in
      let _, merge = audit_of ~seed ~replicas ~ops ~window Drivers.Osend_merge in
      let causal_caught =
        match
          Mutate.reorder_causal ~graph:osend.Drivers.graph osend.Drivers.trace
        with
        | None -> true (* no adjacent dependent pair in this run *)
        | Some (mut, _, _) ->
          Trace_check.causal ~graph:osend.Drivers.graph mut <> []
      in
      let release_caught =
        match
          Mutate.reorder_release ~graph:merge.Drivers.graph merge.Drivers.trace
        with
        | None -> true
        | Some (mut, _, _) ->
          Trace_check.total_order ~strict:true ~graph:merge.Drivers.graph
            ~sync:Label.Set.empty mut
          <> []
      in
      causal_caught && release_caught)

(* --- equivalence with the list-based reference ------------------------ *)

module Ref = Ref_trace_check

let rendered ds = List.map Diag.to_string ds
let lines rs = List.map (Format.asprintf "%a" Trace.pp_record) rs

(* The first checker on which the indexed oracle and the reference
   disagree over [trace], if any: diagnostics are compared as rendered
   text, record lists record by record. *)
let disagreement ~graph ~sync ~founders trace =
  let nodes = Trace_check.nodes trace in
  let checks =
    [
      ("nodes", fun () -> nodes = Ref.nodes trace);
      ( "deliver_records",
        fun () ->
          List.for_all
            (fun node ->
              lines (Trace_check.deliver_records trace ~node)
              = lines (Ref.deliver_records trace ~node))
            nodes );
      ( "release_records",
        fun () ->
          List.for_all
            (fun node ->
              lines (Trace_check.release_records trace ~node)
              = lines (Ref.release_records trace ~node))
            nodes );
      ( "causal",
        fun () ->
          rendered (Trace_check.causal ~graph trace)
          = rendered (Ref.causal ~graph trace) );
      ( "causal_among",
        fun () ->
          rendered
            (Trace_check.causal_among ~graph
               ~nodes:(fun n -> n < founders)
               trace)
          = rendered (Ref.causal ~graph (Ref.founders_view trace ~founders)) );
      ( "founders_view",
        fun () ->
          lines (Trace.fold (Drivers.founders_view trace ~founders) ~init:[]
                   ~f:(fun acc r -> r :: acc))
          = lines (Trace.fold (Ref.founders_view trace ~founders) ~init:[]
                     ~f:(fun acc r -> r :: acc)) );
      ( "fifo",
        fun () ->
          rendered (Trace_check.fifo ~graph trace)
          = rendered (Ref.fifo ~graph trace) );
      ( "total_order strict",
        fun () ->
          rendered (Trace_check.total_order ~strict:true ~graph trace)
          = rendered (Ref.total_order ~strict:true ~graph trace) );
      ( "total_order sync",
        fun () ->
          rendered (Trace_check.total_order ~graph ~sync trace)
          = rendered (Ref.total_order ~graph ~sync trace) );
      ( "total_order sync points",
        fun () ->
          rendered (Trace_check.total_order ~graph trace)
          = rendered (Ref.total_order ~graph trace) );
      ( "stable_points",
        fun () ->
          rendered (Trace_check.stable_points trace)
          = rendered (Ref.stable_points trace) );
    ]
  in
  List.find_map (fun (name, ok) -> if ok () then None else Some name) checks

(* A random multi-node trace over a random dependency graph: labels from
   three origins (some sharing one display name, so two labels can render
   alike), predicates over earlier labels and a ghost the graph lacks,
   and records of every kind — transport records included — whose tags
   mix label renderings, stable-point marks and unknown strings. *)
let random_case seed =
  let st = Random.State.make [| seed |] in
  let pick a = a.(Random.State.int st (Array.length a)) in
  let labels =
    List.concat_map
      (fun origin ->
        List.filter_map
          (fun seq ->
            if Random.State.int st 4 = 0 then None
            else
              let name =
                if Random.State.int st 6 = 0 then Some "dup" else None
              in
              Some (lbl ?name origin seq))
          [ 0; 1; 2; 3 ])
      [ 0; 1; 2 ]
    |> Array.of_list
  in
  let ghost = lbl 7 7 in
  let g = Depgraph.create () in
  Array.iteri
    (fun k l ->
      let earlier () =
        if k = 0 || Random.State.int st 8 = 0 then ghost
        else labels.(Random.State.int st k)
      in
      let dep =
        match Random.State.int st 4 with
        | 0 -> Dep.null
        | 1 -> Dep.after (earlier ())
        | 2 -> Dep.after_all [ earlier (); earlier () ]
        | _ -> Dep.after_any [ earlier (); earlier () ]
      in
      Depgraph.add g l ~dep)
    labels;
  let tags =
    Array.append
      (Array.map Label.to_string labels)
      [| ""; "ghost"; "m7.7"; "stable:0"; "stable:1" |]
  in
  let transports =
    Trace.
      [|
        Sent_to; Sent_all; Received_from; Lost_partition; Lost_loss;
        Lost_departed_dst; Lost_departed_src; Node_added; Node_removed;
      |]
  in
  let kinds =
    Trace.[| Send; Receive; Deliver; Deliver; Deliver; Release; Release; Drop; Mark |]
  in
  let trace = Trace.create ~capacity:1 () in
  (* one trace in eight spans several 512-row storage chunks *)
  let rows = if Random.State.int st 8 = 0 then 1600 else 80 in
  for i = 0 to Random.State.int st rows do
    let time = float_of_int i /. 2.0 and node = Random.State.int st 5 - 1 in
    if Random.State.int st 6 = 0 then
      Trace.record_transport trace ~time ~node (pick transports)
        ~peer:(Random.State.int st 4)
    else
      Trace.record trace ~time ~node ~kind:(pick kinds) ~tag:(pick tags)
        ~info:(pick [| ""; "digest=aa"; "digest=bb" |])
        ()
  done;
  let sync =
    Array.fold_left
      (fun acc l -> if Random.State.bool st then Label.Set.add l acc else acc)
      Label.Set.empty labels
  in
  (g, sync, trace)

let prop_oracle_matches_reference =
  qtest ~count:500 "oracle = reference on random traces"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let graph, sync, trace = random_case seed in
      match disagreement ~graph ~sync ~founders:2 trace with
      | None -> true
      | Some name -> QCheck2.Test.fail_reportf "seed %d: %s differs" seed name)

(* Every mutation Check.Mutate plants in the audited compositions' traces
   (and every clean trace) gets the same verdict text from both
   checkers. *)
let prop_mutations_match_reference =
  qtest ~count:8 "oracle = reference on every mutation" params_gen
    (fun (ops, window, replicas, seed) ->
      List.for_all
        (fun spec ->
          let _, a = audit_of ~seed ~replicas ~ops ~window spec in
          let graph = a.Drivers.graph and sync = a.Drivers.sync in
          let fst3 = Option.map (fun (t, _, _) -> t) in
          let traces =
            a.Drivers.trace
            :: List.filter_map Fun.id
                 [
                   fst3 (Mutate.reorder_causal ~graph a.Drivers.trace);
                   fst3 (Mutate.reorder_fifo ~graph a.Drivers.trace);
                   fst3 (Mutate.reorder_release ~graph a.Drivers.trace);
                   fst3 (Mutate.reorder_release ~sync ~graph a.Drivers.trace);
                   Option.map fst (Mutate.corrupt_mark a.Drivers.trace);
                 ]
          in
          List.for_all
            (fun trace ->
              match disagreement ~graph ~sync ~founders:replicas trace with
              | None -> true
              | Some name ->
                QCheck2.Test.fail_reportf "%s seed %d: %s differs"
                  (Drivers.stack_spec_name spec) seed name)
            traces)
        (Drivers.Pc_stack :: all_specs ops))

(* The churn oracle: PC runs under join/leave (and a partition, so the
   causal pass is sometimes disarmed), clean and with a swapped
   delivery, give the same [recheck_pc] verdicts as the reference. *)
let test_recheck_pc_matches_reference () =
  List.iter
    (fun seed ->
      let w = { Drivers.ops = 30; spacing = 0.5; mix = Drivers.Random 0.3 } in
      let nemesis =
        Causalb_net.Nemesis.
          [
            { at = 2.0; action = Join { contact = 0 } };
            { at = 4.0; action = Partition [ [ 0; 1 ]; [ 2 ] ] };
            { at = 6.0; action = Heal };
            { at = 8.0; action = Leave 1 };
            { at = 9.0; action = Join { contact = 2 } };
          ]
      in
      let nemesis = if seed mod 2 = 0 then nemesis else List.tl nemesis in
      let r = Drivers.run_pc ~seed ~nemesis ~replicas:3 w in
      let graph = r.Drivers.pc_graph and lost = r.Drivers.pc_lost in
      let traces =
        r.Drivers.pc_trace
        :: List.filter_map
             (Option.map (fun (t, _, _) -> t))
             [
               Mutate.reorder_causal ~graph r.Drivers.pc_trace;
               Mutate.reorder_fifo ~graph r.Drivers.pc_trace;
             ]
      in
      List.iter
        (fun trace ->
          List.iter
            (fun lost ->
              Alcotest.(check (list string))
                (Printf.sprintf "seed %d lost %d" seed lost)
                (rendered (Ref.recheck_pc ~replicas:3 ~lost ~graph trace))
                (rendered (Drivers.recheck_pc ~replicas:3 ~lost ~graph trace)))
            [ 0; lost ])
        traces)
    [ 1; 2; 3; 4; 5; 6 ]

let () =
  Alcotest.run "check"
    [
      ( "trace",
        [
          Alcotest.test_case "array storage" `Quick test_trace_array;
          Alcotest.test_case "release pairing" `Quick
            test_deliveries_include_release;
        ] );
      ("graph", [ Alcotest.test_case "analysis helpers" `Quick test_graph_helpers ]);
      ( "checkers",
        [
          Alcotest.test_case "causal" `Quick test_causal_checker;
          Alcotest.test_case "fifo" `Quick test_fifo_checker;
          Alcotest.test_case "total order" `Quick test_total_order_checker;
          Alcotest.test_case "stable points" `Quick test_stable_checker;
        ] );
      ( "lint",
        [
          Alcotest.test_case "spec issues" `Quick test_lint;
          Alcotest.test_case "send list / duplicates" `Quick test_lint_sends;
        ] );
      ( "harness",
        [
          Alcotest.test_case "compositions pass" `Quick test_compositions_pass;
          Alcotest.test_case "no audit without check" `Quick
            test_no_check_no_audit;
          Alcotest.test_case "mutations caught" `Quick test_mutations_caught;
        ] );
      ("props", [ prop_clean_workloads; prop_mutations_always_caught ]);
      ( "reference",
        [
          prop_oracle_matches_reference;
          prop_mutations_match_reference;
          Alcotest.test_case "recheck_pc" `Quick
            test_recheck_pc_matches_reference;
        ] );
    ]
