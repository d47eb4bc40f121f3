(* The benchmark ledger: four named end-to-end workloads, each timed as
   setup / simulate / audit, driven through the layers' public functions.
   See README.md in this directory for why each workload exists and which
   layer metric should move which end-to-end metric.

   One process runs one workload on one thread.  Inputs are a pure
   function of --seed.  A run is: one untimed warm-up rep, then timed
   reps until --seconds have passed (at least three per mode), each
   preceded by Gc.compact and a machine-speed calibration kernel.  Every
   end-to-end figure is the median across the timed reps, wall times
   scaled to the reference speed.  --trace 1 alternates untraced and
   traced reps and reports the per-layer metrics from the spans of the
   traced ones. *)

module Engine = Causalb_sim.Engine
module Trace = Causalb_sim.Trace
module Net = Causalb_net.Net
module Stack = Causalb_stack.Stack
module Metrics = Causalb_stackbase.Metrics
module Pcb = Causalb_core.Pcbcast
module Checker = Causalb_core.Checker
module Message = Causalb_core.Message
module Label = Causalb_graph.Label
module Dep = Causalb_graph.Dep
module Window = Causalb_data.Window
module Op = Causalb_data.Op
module Reg = Causalb_data.Datatypes.Int_register
module D = Causalb_harness.Drivers
module Campaign = Causalb_harness.Campaign
module Pool = Causalb_harness.Pool
module C = Causalb_check.Trace_check
module Stats = Causalb_util.Stats
module Rng = Causalb_util.Rng

(* --- workload sizes ---------------------------------------------------- *)

let latency = D.default_latency

(* Virtual ms between two submissions: the load is open-loop in virtual
   time, whatever the deliveries do. *)
let spacing = 0.5

let s61_replicas = 32
let s61_ops = 1024 (* per composition, closing sync included *)
let s61_counted = 8 (* Counted batch; divides s61_ops so every batch closes *)
let members_n = 2048
let members_degree = 8
let members_bcasts = 32
let audited_replicas = 32
let audited_ops = 400
let hunt_seeds = 1368 (* per severity; 1026 of them kept, see [generate] *)
let setup_builds = 5 (* builds per small setup; pc_members builds once *)

(* --- one rep ----------------------------------------------------------- *)

type phase = { mutable wall : float; mutable words : float }

let timed ph f =
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  ph.wall <- ph.wall +. (Unix.gettimeofday () -. t0);
  ph.words <- ph.words +. (Gc.minor_words () -. w0);
  r

(* Latency samples in a buffer sized up front from the inputs: a growing
   accumulator would add a seed-dependent doubling to the heap top. *)
type samples = { mutable buf : float array; mutable len : int }

let samples cap = { buf = Array.make (max cap 1) 0.; len = 0 }

let add_sample s x =
  if s.len = Array.length s.buf then begin
    let b = Array.make (2 * s.len) 0. in
    Array.blit s.buf 0 b 0 s.len;
    s.buf <- b
  end;
  s.buf.(s.len) <- x;
  s.len <- s.len + 1

(* Linear interpolation between closest ranks, as [Stats.percentile]. *)
let percentile s p =
  if s.len = 0 then nan
  else begin
    let a = Array.sub s.buf 0 s.len in
    Array.sort Float.compare a;
    let rank = p /. 100. *. float_of_int (s.len - 1) in
    let lo = int_of_float (Float.floor rank) and hi = int_of_float (Float.ceil rank) in
    let f = rank -. float_of_int lo in
    (a.(lo) *. (1. -. f)) +. (a.(hi) *. f)
  end

(* One [Stack.metrics] row class (transport / causal / total), summed
   over the compositions that have it. *)
type row = { mutable forced : int; mutable released : int; mutable lat : Stats.t }

type rep = {
  setup : phase;
  sim : phase;
  audit : phase;
  mutable delivered : int;  (* application deliveries, every member *)
  mutable expected : int;   (* ops x members present for the whole run *)
  mutable present : int;    (* application deliveries at those members *)
  mutable copies : int;     (* unicast copies on the wire *)
  mutable events : int;     (* engine callbacks *)
  mutable records : int;    (* trace records *)
  mutable forced : int;     (* forced waits in the causal layers *)
  mutable parked : int;     (* Pcbcast.buffered_ever, summed *)
  mutable parked_base : int;  (* application deliveries [parked] is over *)
  mutable lost : int;       (* partition + loss drops *)
  mutable attempted : int;  (* runs or cases *)
  mutable failed : int;     (* runs or cases with an unclean verdict *)
  mutable gate : int;       (* of those, failures of the benchmark's own gate *)
  mutable findings : Campaign.verdict list;  (* hunt: unclean verdicts *)
  mutable case_lost : int;  (* hunt: copies removed, as run_case verdicts count them *)
  mutable lat : samples;    (* virtual submit -> app release, ms *)
  mutable majors : int;
  mutable calib : float;    (* calibration kernel time just before the rep *)
  rows : (string, row) Hashtbl.t;
  mutable p50 : float;      (* [lat] and [rows] reduced by [settle] *)
  mutable p99 : float;
  mutable row_figures : (string * (float * float * float)) list;
  mutable spans : Span.summary option;
}

let new_rep cap =
  let phase () = { wall = 0.; words = 0. } in
  {
    setup = phase (); sim = phase (); audit = phase ();
    delivered = 0; expected = 0; present = 0; copies = 0; events = 0;
    records = 0; forced = 0; parked = 0; parked_base = 0; lost = 0;
    attempted = 0; failed = 0; gate = 0; findings = []; case_lost = 0; lat = samples cap;
    majors = 0; calib = nan; rows = Hashtbl.create 3; p50 = nan; p99 = nan; row_figures = [];
    spans = None;
  }

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* Distinct failure messages, first seen first, for stderr. *)
let problems = ref []

let note msg = if not (List.mem msg !problems) then problems := msg :: !problems

(* A gate failure: the program broke an expectation the benchmark holds
   it to on a fault-free workload. *)
let fail r fmt =
  Printf.ksprintf
    (fun msg ->
      r.failed <- r.failed + 1;
      r.gate <- r.gate + 1;
      note msg)
    fmt

(* The machine-independent counts that must repeat exactly. *)
let counts r =
  [ ("deliveries", r.delivered); ("events", r.events); ("copies", r.copies);
    ("trace_records", r.records); ("forced_waits", r.forced);
    ("parked", r.parked); ("lost", r.lost);
    ("attempted", r.attempted); ("failed", r.failed) ]

let words r =
  [ ("setup_minor_words", r.setup.words); ("sim_minor_words", r.sim.words);
    ("audit_minor_words", r.audit.words) ]

(* Setup phases of a few ms are at the mercy of one scheduler tick, so a
   small setup is built [k] times and its median time counts.  Only the
   last build is kept, traced and charged minor words, so every other
   figure is as if it were built once. *)
let timed_setup r k build =
  let times = ref [] and kept = ref None in
  let traced = !Span.on in
  for j = 1 to k do
    Span.on := traced && j = k;
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    let x = build () in
    times := (Unix.gettimeofday () -. t0) :: !times;
    if j = k then r.setup.words <- r.setup.words +. (Gc.minor_words () -. w0);
    kept := Some x
  done;
  let s = Stats.create () in
  List.iter (Stats.add s) !times;
  r.setup.wall <- r.setup.wall +. Stats.median s;
  Option.get !kept

(* --- s61_stack: the §6.1 mix over all eight compositions --------------- *)

let specs =
  [ D.Fifo_only; D.Bss_stack; D.Psync_stack; D.Osend_stack; D.Osend_merge;
    D.Osend_counted s61_counted; D.Osend_sequencer; D.Pc_stack ]

let is_sync = function Reg.Read | Reg.Set _ -> true | Reg.Inc _ | Reg.Dec _ -> false

let stack_params = function
  | D.Fifo_only -> (Stack.Fifo, Stack.Pass)
  | D.Bss_stack -> (Stack.Bss, Stack.Pass)
  | D.Psync_stack -> (Stack.Psync, Stack.Pass)
  | D.Osend_stack -> (Stack.Osend, Stack.Pass)
  | D.Osend_merge -> (Stack.Osend, Stack.Merge (fun m -> is_sync (Message.payload m)))
  | D.Osend_counted n -> (Stack.Osend, Stack.Counted n)
  | D.Osend_sequencer -> (Stack.Osend, Stack.Sequencer { node = 0 })
  | D.Pc_stack -> (Stack.Pc, Stack.Pass)

let row_class name =
  match String.index_opt name ':' with
  | Some i -> String.sub name 0 i
  | None -> name

let add_row r (m : Metrics.t) =
  let cls = row_class m.Metrics.name in
  let row =
    match Hashtbl.find_opt r.rows cls with
    | Some row -> row
    | None ->
      let row = { forced = 0; released = 0; lat = Stats.create () } in
      Hashtbl.replace r.rows cls row;
      row
  in
  row.forced <- row.forced + m.Metrics.forced_waits;
  row.released <- row.released + m.Metrics.delivered;
  row.lat <- Stats.merge row.lat m.Metrics.latency

(* A workload: the runner of one timed rep, the untimed warm-up, and the
   latency-buffer sizes each needs. *)
type workload = { cap : int; warm : rep -> unit; run : rep -> unit; rep_cap : int }

let same cap f = { cap; warm = f; run = f; rep_cap = cap }

let s61 seed =
  (* ~70% commutative increments, syncs are reads; the last op closes the
     final window. *)
  let rng = Rng.create seed in
  let ops =
    Array.init s61_ops (fun i ->
        if i < s61_ops - 1 && Rng.bernoulli rng 0.7 then Reg.Inc 1 else Reg.Read)
  in
  let names = Array.init s61_ops (Printf.sprintf "op%d") in
  let index = Hashtbl.create s61_ops in
  Array.iteri (fun i name -> Hashtbl.replace index name i) names;
  same (s61_ops * s61_replicas * List.length specs) @@ fun r ->
    List.iter
      (fun spec ->
        let delivered = ref 0 in
        let on_deliver ~node:_ ~time msg =
          let sp = Span.enter Span.App in
          incr delivered;
          (match Hashtbl.find_opt index (Label.name (Message.label msg)) with
          | Some i -> add_sample r.lat (time -. (float_of_int i *. spacing))
          | None -> ());
          Span.leave sp
        in
        let stack =
          timed_setup r setup_builds (fun () ->
              let engine =
                Engine.create ~seed:(Pool.seed_for ~base:seed (D.stack_spec_name spec)) ()
              in
              let ordering, total = stack_params spec in
              let sp = Span.enter Span.Compose in
              let stack =
                Stack.compose ~ordering ~total ~latency
                  ~fifo:(D.transport_fifo_of spec) ~on_deliver engine
                  ~nodes:s61_replicas ()
              in
              Span.leave sp;
              (* The §6.1 front-end: commutative ops follow the last sync,
                 a sync AND-closes the open window. *)
              let win = Window.create () in
              Array.iteri
                (fun i op ->
                  Engine.schedule_at engine ~time:(float_of_int i *. spacing)
                    (fun () ->
                      let kind =
                        if is_sync op then Op.Non_commutative else Op.Commutative
                      in
                      let dep = Dep.after_all (Window.deps_for win ~kind ~fallback:[]) in
                      let sp = Span.enter Span.Submit in
                      let label =
                        Stack.submit stack ~src:(i mod s61_replicas) ~name:names.(i)
                          ~dep op
                      in
                      Span.leave sp;
                      match label with
                      | Some l -> Window.note win ~kind l
                      | None -> ()))
                ops;
              stack)
        in
        timed r.sim (fun () ->
            let sp = Span.enter Span.Run in
            Stack.run stack;
            Span.leave sp);
        (* Correctness gate, untimed: fault-free, so every member
           delivers every op; the merge and sequencer tails also agree on
           one order. *)
        r.attempted <- r.attempted + 1;
        let want = s61_ops * s61_replicas in
        let orders = Stack.all_delivered_orders stack in
        if !delivered <> want then
          fail r "%s: %d deliveries, expected %d" (D.stack_spec_name spec) !delivered want
        else if
          (match spec with
          | D.Osend_merge | D.Osend_sequencer -> not (Checker.identical_orders orders)
          | _ -> not (Checker.same_set orders))
        then fail r "%s: members disagree on the delivered set or order"
               (D.stack_spec_name spec);
        r.delivered <- r.delivered + !delivered;
        r.expected <- r.expected + want;
        r.present <- r.present + !delivered;
        r.copies <- r.copies + Stack.messages_sent stack;
        r.events <- r.events + Engine.events_processed (Stack.engine stack);
        List.iter
          (fun (m : Metrics.t) ->
            add_row r m;
            if row_class m.Metrics.name = "causal" then
              r.forced <- r.forced + m.Metrics.forced_waits;
            if m.Metrics.name = "causal:pc" then begin
              r.parked <- r.parked + m.Metrics.forced_waits;
              r.parked_base <- r.parked_base + !delivered
            end)
          (Stack.metrics stack))
      specs

(* --- pc_members / pc_audited: PC-broadcast groups ---------------------- *)

(* Shared by both PC workloads: a group over FIFO links, [ops] broadcasts
   at a fixed spacing from [origin i], application deliveries counted and
   timed in the benchmark's own callback. *)
let pc_rep r ~builds ~seed ~nodes ?degree ?trace ~origin ~ops () =
  let delivered = ref 0 in
  let on_deliver ~node:_ ~time env =
    let sp = Span.enter Span.App in
    incr delivered;
    (match Pcb.payload env with
    | Some i -> add_sample r.lat (time -. (float_of_int i *. spacing))
    | None -> ());
    Span.leave sp
  in
  let engine, net, g =
    timed_setup r builds (fun () ->
        let engine = Engine.create ~seed () in
        let sp = Span.enter Span.Net_create in
        let net = Net.create engine ~nodes ~latency ~fifo:true ?trace () in
        Span.leave sp;
        let on_causal =
          Option.map
            (fun tr ~node ~label ->
              Trace.record tr ~time:(Engine.now engine) ~node ~kind:Trace.Deliver
                ~tag:(Label.to_string label) ())
            trace
        in
        let sp = Span.enter Span.Group_create in
        let g = Pcb.Group.create ?degree net ~on_deliver ?on_causal () in
        Span.leave sp;
        for i = 0 to ops - 1 do
          let src = origin i and tag = Printf.sprintf "op%d" i in
          Engine.schedule_at engine ~time:(float_of_int i *. spacing) (fun () ->
              let sp = Span.enter Span.Bcast in
              ignore (Pcb.Group.bcast g ~src ~tag i);
              Span.leave sp)
        done;
        (engine, net, g))
  in
  timed r.sim (fun () ->
      let sp = Span.enter Span.Run in
      Engine.run engine;
      Span.leave sp);
  r.attempted <- r.attempted + 1;
  let want = ops * nodes in
  if !delivered <> want then fail r "pc: %d deliveries, expected %d" !delivered want;
  r.delivered <- r.delivered + !delivered;
  r.expected <- r.expected + want;
  r.present <- r.present + !delivered;
  r.copies <- r.copies + Net.messages_sent net;
  r.events <- r.events + Engine.events_processed engine;
  r.lost <- r.lost + Net.dropped_by_partition net + Net.dropped_by_loss net;
  for i = 0 to Pcb.Group.size g - 1 do
    let b = Pcb.buffered_ever (Pcb.Group.member g i) in
    r.parked <- r.parked + b;
    r.forced <- r.forced + b
  done;
  r.parked_base <- r.parked_base + !delivered;
  g

let pc_members seed =
  let rng = Rng.create seed in
  let origins = Array.init members_bcasts (fun _ -> Rng.int rng members_n) in
  let sim_seed = Pool.seed_for ~base:seed "pc_members" in
  same (members_bcasts * members_n) @@ fun r ->
    ignore
      (pc_rep r ~builds:1 ~seed:sim_seed ~nodes:members_n ~degree:members_degree
         ~origin:(fun i -> origins.(i)) ~ops:members_bcasts ())

let pc_audited seed =
  let sim_seed = Pool.seed_for ~base:seed "pc_audited" in
  let replicas = audited_replicas in
  same (audited_ops * replicas) @@ fun r ->
    let trace = Trace.create () in
    let g =
      pc_rep r ~builds:setup_builds ~seed:sim_seed ~nodes:replicas ~trace
        ~origin:(fun i -> i mod replicas) ~ops:audited_ops ()
    in
    let graph = Pcb.Group.graph g in
    let diags =
      timed r.audit (fun () ->
          let sp = Span.enter Span.Recheck in
          let d = D.recheck_pc ~replicas ~lost:r.lost ~graph trace in
          Span.leave sp;
          d)
    in
    (match diags with
    | [] -> ()
    | d :: _ -> fail r "pc_audited: %s" (Causalb_check.Diag.to_string d));
    r.records <- r.records + Trace.length trace;
    (* Traced run only: the two checkers recheck_pc combines, each in
       its own span, outside the timed audit phase. *)
    if !Span.on then begin
      let sp = Span.enter Span.Check_fifo in
      let f = C.fifo ~graph trace in
      Span.leave sp;
      let sp = Span.enter Span.Check_causal in
      let c = C.causal ~graph (D.founders_view trace ~founders:replicas) in
      Span.leave sp;
      if f @ c <> [] then fail r "pc_audited: separate checkers disagree with recheck_pc"
    end

(* --- hunt_faults: a fixed batch of fault-campaign cases ---------------- *)

(* The delivery-side figures of one case, from the driver [run_case]
   dispatches to: [Campaign.verdict] carries no delivery counts. *)
let case_stats r (c : Campaign.case) =
  let ops = c.Campaign.workload.D.ops + 1 in
  r.attempted <- r.attempted + 1;
  let s =
    D.run_stack ~seed:c.Campaign.seed ~check:true ~nemesis:c.Campaign.nemesis
      ~replicas:c.Campaign.replicas c.Campaign.spec c.Campaign.workload
  in
  let n = Stats.count s.D.delivery in
  r.delivered <- r.delivered + n;
  r.present <- r.present + n;
  r.expected <- r.expected + (ops * c.Campaign.replicas);
  Array.iter (add_sample r.lat) (Stats.samples s.D.delivery);
  r.copies <- r.copies + s.D.messages;
  r.lost <- r.lost + s.D.lost;
  r.forced <- r.forced + s.D.buffered;
  (match s.D.audit with
  | Some a -> r.records <- r.records + Trace.length a.D.trace
  | None -> ());
  if c.Campaign.spec = D.Pc_stack then begin
    List.iter
      (fun (m : Metrics.t) ->
        if m.Metrics.name = "causal:pc" then r.parked <- r.parked + m.Metrics.forced_waits)
      s.D.layers;
    r.parked_base <- r.parked_base + n
  end;
  if not s.D.checks_ok then r.failed <- r.failed + 1

(* A hunt case with an unclean verdict is a failed operation: a finding
   of the campaign, reported with its repro, not a benchmark error. *)
let tally r (v : Campaign.verdict) =
  r.attempted <- r.attempted + 1;
  r.copies <- r.copies + v.Campaign.messages;
  r.case_lost <- r.case_lost + v.Campaign.lost;
  if not v.Campaign.ok then begin
    r.failed <- r.failed + 1;
    r.findings <- v :: r.findings
  end

let report_findings r =
  List.iter
    (fun (v : Campaign.verdict) ->
      note
        (Printf.sprintf "failed case %s\n  %s"
           (Campaign.describe v.Campaign.case)
           (Option.value v.Campaign.violation ~default:"checks failed")))
    (List.rev r.findings)

(* The batch: [hunt_seeds] cases at the campaign's default severity and
   [hunt_seeds] under [~buggify], minus two classes of case that fail
   on a known defect of the program (README.md, "Known defects"), since
   no operation of a benchmark workload may fail:
   - [~churn] cases: join/leave breaks PC causal order;
   - the [Fifo_only] and [Bss_stack] cases: after a loss/duplication
     phase their members can end with different delivered sets while
     no copy is counted lost, so the armed agreement check fails.
   The other six compositions keep every fault kind. *)
let generate seed =
  let keep (c : Campaign.case) =
    match c.Campaign.spec with D.Fifo_only | D.Bss_stack -> false | _ -> true
  in
  List.filter keep
    (Campaign.generate ~base_seed:seed ~seeds:hunt_seeds ()
    @ Campaign.generate ~base_seed:(seed + 1) ~buggify:true ~seeds:hunt_seeds ())

(* The warm-up rep of the hunt is the stats pass above: it runs every
   case once through the drivers, and its per-case copies, losses and
   verdicts are checked against the timed reps' [run_case] verdicts. *)
let hunt_faults seed =
  let stats = ref None in
  let warm r =
    List.iter (case_stats r) (generate seed);
    stats := Some r
  in
  let run r =
    let cases =
      timed_setup r setup_builds (fun () ->
          let sp = Span.enter Span.Generate in
          let cs = generate seed in
          Span.leave sp;
          cs)
    in
    timed r.sim (fun () ->
        List.iter
          (fun c ->
            let sp = Span.enter Span.Run_case in
            let v = Campaign.run_case c in
            Span.leave sp;
            tally r v)
          cases);
    report_findings r;
    match !stats with
    | None -> ()
    | Some (s : rep) ->
      r.delivered <- s.delivered;
      r.present <- s.present;
      r.expected <- s.expected;
      r.records <- s.records;
      r.forced <- s.forced;
      r.parked <- s.parked;
      r.parked_base <- s.parked_base;
      r.lost <- s.lost;
      r.p50 <- s.p50;
      r.p99 <- s.p99
  in
  (* Room for every op at every member. *)
  let cap =
    List.fold_left
      (fun a (c : Campaign.case) ->
        a + ((c.Campaign.workload.D.ops + 1) * c.Campaign.replicas))
      0 (generate seed)
  in
  { cap; warm; run; rep_cap = 0 }

(* Benchmark self-test: a planted ordering violation must come back as a
   failed case through the same tally the timed reps use. *)
let hunt_self_test seed =
  let rec find n = function
    | c :: rest when n > 0 ->
      let v = Campaign.run_case ~plant:true c in
      if v.Campaign.ok then find (n - 1) rest else Some v
    | _ -> None
  in
  match find 16 (generate seed) with
  | None -> false
  | Some v ->
    let r = new_rep 0 in
    let saved = !problems in
    tally r v;
    problems := saved;
    r.failed = 1 && r.attempted = 1

(* --- measurement loop ---------------------------------------------------- *)

(* Machine-speed calibration.  On a shared VM the speed of the machine
   itself swings by up to 2x within minutes, far more than any change a
   bound could catch.  So a fixed kernel runs just before every timed
   rep, and the rep's wall times are scaled to the speed at which the
   kernel takes [calib_ref] seconds.  The kernel fills an 8 MB integer
   buffer and walks it in a data-dependent order: arithmetic plus
   cache-missing loads, like the program's own mix.  The buffer lies
   outside the OCaml heap and the kernel allocates nothing, so neither
   the program nor the GC state changes its time. *)
let calib_ref = 0.3

let calib_buf = Bigarray.(Array1.create int c_layout (1 lsl 20))

let calibrate () =
  let open Bigarray in
  let t0 = Unix.gettimeofday () in
  let n = Array1.dim calib_buf in
  let x = ref 12345 in
  for i = 0 to n - 1 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    Array1.unsafe_set calib_buf i !x
  done;
  let j = ref 0 and acc = ref 0 in
  for k = 1 to 4 * n do
    j := (Array1.unsafe_get calib_buf !j lxor k) land (n - 1);
    acc := !acc + !j
  done;
  ignore (Sys.opaque_identity !acc);
  Unix.gettimeofday () -. t0

(* A rep's wall time at the reference speed. *)
let scaled r wall = wall *. calib_ref /. r.calib

(* Reduce a finished rep to scalars.  Reps are kept for the medians, and
   a live heap that grew with every rep would slow every later rep. *)
let settle r =
  if r.lat.len > 0 then begin
    r.p50 <- percentile r.lat 50.;
    r.p99 <- percentile r.lat 99.;
    r.lat <- samples 0
  end;
  r.row_figures <-
    Hashtbl.fold
      (fun cls (w : row) acc ->
        ( cls,
          ( ratio w.forced w.released,
            Stats.percentile w.lat 50.,
            Stats.percentile w.lat 99. ) )
        :: acc)
      r.rows [];
  Hashtbl.reset r.rows

let median xs =
  let s = Stats.create () in
  List.iter (Stats.add s) xs;
  Stats.median s

let quartiles xs =
  let s = Stats.create () in
  List.iter (Stats.add s) xs;
  (Stats.percentile s 25., Stats.median s, Stats.percentile s 75.)

let finite x = if Float.is_finite x then x else 0.


let determinism_error msg =
  prerr_endline ("ledger: determinism check failed: " ^ msg);
  exit 3

let check_same what a b =
  List.iter2
    (fun (k, x) (_, y) ->
      if x <> y then
        determinism_error (Printf.sprintf "%s: %s %s vs %s" what k x y))
    a b

let ints l = List.map (fun (k, v) -> (k, string_of_int v)) l
let floats l = List.map (fun (k, v) -> (k, Printf.sprintf "%.0f" v)) l

let measure ~workload ~seed ~seconds ~trace ~spans_out =
  let hunt = workload = "hunt_faults" in
  let w =
    match workload with
    | "s61_stack" -> s61 seed
    | "pc_members" -> pc_members seed
    | "pc_audited" -> pc_audited seed
    | "hunt_faults" -> hunt_faults seed
    | w -> raise (Arg.Bad ("unknown workload " ^ w))
  in
  (* The warm-up also measures memory: with an eager major GC, the top
     of the major heap tracks the workload's live data rather than how
     far the collector happened to lag. *)
  let measuring = Gc.get () in
  Gc.set { measuring with Gc.space_overhead = 20 };
  Gc.compact ();
  let warm = new_rep w.cap in
  w.warm warm;
  let peak_words = (Gc.quick_stat ()).Gc.top_heap_words in
  settle warm;
  Gc.set measuring;
  let self_test = if hunt then Some (hunt_self_test seed) else None in
  let reps = ref [] in
  let t_start = Unix.gettimeofday () in
  let min_reps = if trace then 6 else 3 in
  let i = ref 0 and last = ref 0. in
  (* Start a rep only if it is expected to end within --seconds. *)
  while
    !i < min_reps
    || (Unix.gettimeofday () -. t_start +. !last <= seconds && !i < 1000)
  do
    let t_rep = Unix.gettimeofday () in
    let traced = trace && !i mod 2 = 1 in
    Gc.compact ();
    Span.on := traced;
    let r = new_rep w.rep_cap in
    let m0 = (Gc.quick_stat ()).Gc.major_collections in
    r.calib <- calibrate ();
    w.run r;
    r.majors <- (Gc.quick_stat ()).Gc.major_collections - m0;
    Span.on := false;
    settle r;
    if traced then begin
      r.spans <- Some (Span.summarize ());
      (match spans_out with
      | Some path when !i = 1 ->
        let oc = open_out path in
        Span.write oc;
        close_out oc
      | _ -> ());
      Span.reset ()
    end;
    Printf.eprintf "rep %d traced=%b setup=%.6f sim=%.6f audit=%.6f majors=%d\n%!" !i traced
      r.setup.wall r.sim.wall r.audit.wall r.majors;
    reps := (traced, r) :: !reps;
    last := Unix.gettimeofday () -. t_rep;
    incr i
  done;
  let reps = List.rev !reps in
  (* Determinism: the counts of every timed rep equal the warm-up's (the
     hunt's warm-up is the stats pass, checked on what both compute), and
     minor words per phase repeat among the reps of one mode. *)
  let first = snd (List.hd reps) in
  if hunt then begin
    check_same "hunt stats pass vs run_case"
      (ints [ ("copies", warm.copies); ("lost", warm.lost); ("failed", warm.failed) ])
      (ints [ ("copies", first.copies); ("lost", first.case_lost); ("failed", first.failed) ])
  end
  else check_same "warm-up vs rep" (ints (counts warm)) (ints (counts first));
  List.iter
    (fun (traced, r) ->
      check_same "rep vs rep" (ints (counts first)) (ints (counts r));
      match List.find_opt (fun (t, _) -> t = traced) reps with
      | Some (_, r0) -> check_same "rep vs rep" (floats (words r0)) (floats (words r))
      | None -> ())
    reps;
  (reps, self_test, peak_words)

(* --- output -------------------------------------------------------------- *)

let json_num x = Printf.sprintf "%.17g" (finite x)

let json_str s = Causalb_util.Json.to_string (Causalb_util.Json.Str s)

let e2e_of reps peak_words =
  let untraced = List.filter_map (fun (t, r) -> if t then None else Some r) reps in
  let r0 = List.hd untraced in
  let per f = List.map f untraced in
  let top = peak_words * (Sys.word_size / 8) in
  [
    ("setup_s", "s", per (fun r -> scaled r r.setup.wall));
    ( "deliveries_per_s", "1/s",
      per (fun r -> float_of_int r.delivered /. scaled r (r.sim.wall +. r.audit.wall)) );
    ("peak_heap_mb", "MB", [ float_of_int top /. 1048576. ]);
    ("sim_delivery_p50_ms", "ms", [ r0.p50 ]);
    ("sim_delivery_p99_ms", "ms", [ r0.p99 ]);
    ("msgs_per_delivery", "1", [ ratio r0.copies r0.delivered ]);
    ("delivery_ratio", "1", [ ratio r0.present r0.expected ]);
  ]

let per_layer_of reps =
  let traced = List.filter_map (fun (t, r) -> if t then Some r else None) reps in
  let untraced = List.filter_map (fun (t, r) -> if t then None else Some r) reps in
  let r0 = List.hd untraced in
  let span f =
    List.map
      (fun r -> match r.spans with Some s -> f s | None -> 0.)
      traced
  in
  let self k = span (fun s -> s.Span.self.(Span.index k)) in
  let total k = span (fun s -> s.Span.total.(Span.index k)) in
  let per f = List.map f untraced in
  let row cls f =
    match List.assoc_opt cls r0.row_figures with Some w -> [ f w ] | None -> [ 0. ]
  in
  let wall rs = median (List.map (fun r -> scaled r (r.sim.wall +. r.audit.wall)) rs) in
  let rows =
    List.concat_map
      (fun cls ->
        let p = Printf.sprintf "stack.%s.%s" cls in
        [
          (p "forced_waits_per_delivery", "1", row cls (fun (f, _, _) -> f));
          (p "lat_p50_ms", "ms", row cls (fun (_, q, _) -> q));
          (p "lat_p99_ms", "ms", row cls (fun (_, _, q) -> q));
        ])
      [ "transport"; "causal"; "total" ]
  in
  [
    ("sim.run_s", "s", self Span.Run);
    ("sim.events_per_delivery", "1", [ ratio r0.events r0.delivered ]);
    ("trace.records_per_delivery", "1", [ ratio r0.records r0.delivered ]);
    ("net.create_s", "s", self Span.Net_create);
    ("net.lost_share", "1", [ ratio r0.lost r0.copies ]);
    ("pc.group_create_s", "s", self Span.Group_create);
    ("pc.bcast_s", "s", self Span.Bcast);
    ("pc.parked_per_delivery", "1", [ ratio r0.parked r0.parked_base ]);
    ("stack.compose_s", "s", self Span.Compose);
    ("stack.submit_s", "s", self Span.Submit);
    ("stack.app_s", "s", total Span.App);
  ]
  @ rows
  @ [
      ("check.audit_s", "s", self Span.Recheck);
      ( "check.audit_share", "1",
        per (fun r -> r.audit.wall /. (r.sim.wall +. r.audit.wall)) );
      ("check.causal_s", "s", self Span.Check_causal);
      ("check.fifo_s", "s", self Span.Check_fifo);
      ("campaign.generate_s", "s", self Span.Generate);
      ( "campaign.case_p50_ms", "ms",
        span (fun s -> 1000. *. s.Span.median.(Span.index Span.Run_case)) );
      ("gc.setup_minor_words", "words", per (fun r -> r.setup.words));
      ( "gc.sim_minor_words_per_delivery", "words",
        per (fun r -> r.sim.words /. float_of_int r.delivered) );
      ( "gc.audit_minor_words_per_delivery", "words",
        per (fun r -> r.audit.words /. float_of_int r.delivered) );
      ("gc.major_collections", "count", per (fun r -> float_of_int r.majors));
      ("spans.overhead_share", "1", [ (wall traced /. wall untraced) -. 1. ]);
      ("machine.calibration_s", "s", List.map (fun (_, r) -> r.calib) reps);
    ]

let metrics_json ms =
  String.concat ", "
    (List.map
       (fun (name, unit, xs) ->
         Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_str name)
           (json_num (median xs)) (json_str unit))
       ms)

let quartiles_json ms =
  String.concat ", "
    (List.map
       (fun (name, _, xs) ->
         let q1, q2, q3 = quartiles xs in
         Printf.sprintf "%s: [%s, %s, %s]" (json_str name) (json_num q1) (json_num q2)
           (json_num q3))
       ms)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let commit = ref "unknown" and nproc = ref 0 and spans_out = ref None in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME s61_stack | pc_members | pc_audited | hunt_faults");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 traced run (per-layer metrics)");
      ("--commit", Arg.Set_string commit, "ID source revision, recorded in the output");
      ("--nproc", Arg.Set_int nproc, "N processors, recorded in the output");
      ("--spans", Arg.String (fun p -> spans_out := Some p), "PATH write one traced rep's spans here");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "ledger.exe [options]";
  (* Fixed GC parameters: the environment cannot change them. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 20; space_overhead = 200 };
  let trace = !trace = 1 in
  let reps, self_test, peak_words =
    measure ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace ~spans_out:!spans_out
  in
  let timed = List.map snd reps in
  let attempted = List.fold_left (fun a r -> a + r.attempted) 0 timed in
  let failed = List.fold_left (fun a r -> a + r.failed) 0 timed in
  let gate = List.fold_left (fun a r -> a + r.gate) 0 timed in
  let correct = gate = 0 && self_test <> Some false in
  let ms = if trace then per_layer_of reps else e2e_of reps peak_words in
  List.iter prerr_endline (List.rev !problems);
  List.iter
    (fun (name, unit, xs) ->
      let q1, q2, q3 = quartiles xs in
      Printf.printf "%-40s %14.6g %-6s [q1 %.6g, q3 %.6g, n=%d]\n" name q2 unit q1 q3
        (List.length xs))
    ms;
  (* The counts the determinism check held equal across reps, from the
     first untraced rep: the machine-independent part of the run. *)
  let r0 = snd (List.find (fun (t, _) -> not t) reps) in
  (* Unscaled wall-clock figures, beside the kernel times that scale them. *)
  let untraced = List.filter_map (fun (t, r) -> if t then None else Some r) reps in
  let raw =
    [
      ("setup_s", "s", List.map (fun r -> r.setup.wall) untraced);
      ( "deliveries_per_s", "1/s",
        List.map (fun r -> float_of_int r.delivered /. (r.sim.wall +. r.audit.wall)) untraced );
      ("calibration_s", "s", List.map (fun r -> r.calib) untraced);
    ]
  in
  let counts_json =
    String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "%s: %d" (json_str k) v) (counts r0)
      @ List.map (fun (k, v) -> Printf.sprintf "%s: %.0f" (json_str k) v) (words r0))
  in
  Printf.printf
    "{\"run\": {\"workload\": %s, \"seed\": %d, \"trace\": %b, \"nproc\": %d, \
     \"ocaml\": %s, \"commit\": %s, \"reps\": %d, \"self_test\": %s}, \"counts\": {%s}, \
     \"unscaled\": {%s}, \"quartiles\": {%s}}\n"
    (json_str !workload) !seed trace !nproc (json_str Sys.ocaml_version) (json_str !commit)
    (List.length reps)
    (match self_test with None -> "null" | Some b -> string_of_bool b)
    counts_json (quartiles_json raw) (quartiles_json ms);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed (metrics_json ms);
  exit (if correct then 0 else 1)
