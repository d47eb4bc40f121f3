(* Unit tests for the discrete-event engine, latency models, and traces. *)

module Engine = Causalb_sim.Engine
module Latency = Causalb_sim.Latency
module Trace = Causalb_sim.Trace
module Trace_check = Causalb_check.Trace_check
module Rng = Causalb_util.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* --- Engine --- *)

let test_engine_initial () =
  let e = Engine.create () in
  check_float "time 0" 0.0 (Engine.now e);
  check_int "no pending" 0 (Engine.pending e);
  check "step on empty" false (Engine.step e)

let test_engine_time_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:5.0 (fun () -> log := "b" :: !log);
  Engine.schedule e ~delay:1.0 (fun () -> log := "a" :: !log);
  Engine.schedule e ~delay:9.0 (fun () -> log := "c" :: !log);
  Engine.run e;
  Alcotest.(check (list string)) "fired by time" [ "a"; "b"; "c" ] (List.rev !log);
  check_float "clock at last event" 9.0 (Engine.now e)

let test_engine_fifo_ties () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.schedule e ~delay:1.0 (fun () -> log := i :: !log)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "scheduling order on ties" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:1.0 (fun () ->
      log := "outer" :: !log;
      Engine.schedule e ~delay:1.0 (fun () -> log := "inner" :: !log));
  Engine.run e;
  Alcotest.(check (list string)) "cascade" [ "outer"; "inner" ] (List.rev !log);
  check_float "time" 2.0 (Engine.now e)

let test_engine_zero_delay () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:0.0 (fun () -> log := 1 :: !log);
  Engine.schedule e ~delay:0.0 (fun () -> log := 2 :: !log);
  Engine.run e;
  Alcotest.(check (list int)) "zero-delay order" [ 1; 2 ] (List.rev !log)

let test_engine_negative_delay () =
  let e = Engine.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Engine.schedule: negative delay")
    (fun () -> Engine.schedule e ~delay:(-1.0) (fun () -> ()))

let test_engine_schedule_at_past () =
  let e = Engine.create () in
  Engine.schedule e ~delay:5.0 (fun () ->
      check "past rejected" true
        (try
           Engine.schedule_at e ~time:1.0 (fun () -> ());
           false
         with Invalid_argument _ -> true));
  Engine.run e

let test_engine_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  List.iter
    (fun d -> Engine.schedule e ~delay:d (fun () -> incr fired))
    [ 1.0; 2.0; 3.0; 10.0 ];
  Engine.run ~until:5.0 e;
  check_int "only events <= until" 3 !fired;
  check_int "one left" 1 (Engine.pending e);
  Engine.run e;
  check_int "rest run later" 4 !fired

let test_engine_max_events () =
  let e = Engine.create () in
  for _ = 1 to 10 do
    Engine.schedule e ~delay:1.0 (fun () -> ())
  done;
  Engine.run ~max_events:4 e;
  check_int "processed" 4 (Engine.events_processed e);
  check_int "left" 6 (Engine.pending e)

let test_engine_every () =
  let e = Engine.create () in
  let ticks = ref 0 in
  Engine.every e ~period:2.0 ~until:9.0 (fun () -> incr ticks);
  Engine.run e;
  check_int "ticks at 2,4,6,8" 4 !ticks

let test_engine_determinism () =
  let run () =
    let e = Engine.create ~seed:99 () in
    let rng = Engine.fork_rng e in
    let log = ref [] in
    for i = 1 to 20 do
      Engine.schedule e ~delay:(Rng.float rng 10.0) (fun () -> log := i :: !log)
    done;
    Engine.run e;
    !log
  in
  check "identical runs" true (run () = run ())

let test_engine_fork_rng_distinct () =
  let e = Engine.create () in
  let a = Engine.fork_rng e and b = Engine.fork_rng e in
  check "distinct streams" true (Rng.int64 a <> Rng.int64 b)

(* --- Latency --- *)

let test_latency_constant () =
  let rng = Rng.create 1 in
  check_float "constant" 3.0 (Latency.sample rng (Latency.constant 3.0));
  check_float "mean" 3.0 (Latency.mean (Latency.constant 3.0))

let test_latency_uniform () =
  let rng = Rng.create 2 in
  let m = Latency.uniform ~lo:1.0 ~hi:2.0 in
  for _ = 1 to 1000 do
    let v = Latency.sample rng m in
    check "in range" true (v >= 1.0 && v < 2.0)
  done;
  check_float "mean" 1.5 (Latency.mean m)

let test_latency_exponential_floor () =
  let rng = Rng.create 3 in
  let m = Latency.exponential ~floor:0.5 ~mean:2.0 () in
  for _ = 1 to 1000 do
    check "above floor" true (Latency.sample rng m >= 0.5)
  done;
  check_float "mean" 2.5 (Latency.mean m)

let test_latency_sample_means () =
  let rng = Rng.create 4 in
  let close m =
    let n = 50_000 in
    let sum = ref 0.0 in
    for _ = 1 to n do
      sum := !sum +. Latency.sample rng m
    done;
    let emp = !sum /. float_of_int n in
    abs_float (emp -. Latency.mean m) /. Latency.mean m < 0.1
  in
  check "exponential" true (close (Latency.exponential ~mean:3.0 ()));
  check "lognormal" true (close (Latency.lognormal ~mu:0.5 ~sigma:0.4 ()));
  check "pareto shape>1" true (close (Latency.pareto ~scale:1.0 ~shape:3.0))

let test_latency_validation () =
  check "bad constant" true
    (try
       ignore (Latency.constant 0.0);
       false
     with Invalid_argument _ -> true);
  check "bad uniform" true
    (try
       ignore (Latency.uniform ~lo:2.0 ~hi:1.0);
       false
     with Invalid_argument _ -> true);
  check "pareto heavy mean" true
    (Latency.mean (Latency.pareto ~scale:1.0 ~shape:0.5) = infinity)

let test_latency_defaults_positive () =
  let rng = Rng.create 5 in
  for _ = 1 to 100 do
    check "lan positive" true (Latency.sample rng Latency.lan > 0.0);
    check "wan positive" true (Latency.sample rng Latency.wan > 0.0)
  done;
  check "wan slower" true (Latency.mean Latency.wan > Latency.mean Latency.lan)

(* --- Trace --- *)

let test_trace_roundtrip () =
  let tr = Trace.create () in
  Trace.record tr ~time:1.0 ~node:0 ~kind:Trace.Send ~tag:"m1" ();
  Trace.record tr ~time:2.0 ~node:1 ~kind:Trace.Deliver ~tag:"m1" ();
  Trace.record tr ~time:3.0 ~node:1 ~kind:Trace.Deliver ~tag:"m2" ~info:"x" ();
  check_int "length" 3 (Trace.length tr);
  let delivered = Trace_check.deliver_records tr ~node:1 in
  check_int "deliveries at 1" 2 (List.length delivered);
  Alcotest.(check (list string)) "delivery order" [ "m1"; "m2" ]
    (List.map (fun r -> r.Trace.tag) (Trace_check.release_records tr ~node:1));
  check "m2 delivered at 3.0" true
    (List.exists
       (fun r -> r.Trace.tag = "m2" && r.Trace.time = 3.0 && r.Trace.info = "x")
       delivered);
  check "nothing delivered at 0" true (Trace_check.deliver_records tr ~node:0 = [])

let test_engine_every_unbounded_with_budget () =
  (* an unbounded periodic timer is stoppable via max_events *)
  let e = Engine.create () in
  let ticks = ref 0 in
  Engine.every e ~period:1.0 (fun () -> incr ticks);
  Engine.run ~max_events:25 e;
  check_int "exactly the budget" 25 !ticks

let test_latency_to_string () =
  check "constant renders" true
    (Latency.to_string (Latency.constant 2.0) = "constant(2ms)");
  check "lan renders" true (String.length (Latency.to_string Latency.lan) > 0);
  List.iter
    (fun m -> check "nonempty" true (String.length (Latency.to_string m) > 0))
    [
      Latency.uniform ~lo:1.0 ~hi:2.0;
      Latency.exponential ~mean:1.0 ();
      Latency.pareto ~scale:1.0 ~shape:2.0;
    ]

let test_trace_pp () =
  let tr = Trace.create () in
  Trace.record tr ~time:1.5 ~node:0 ~kind:Trace.Send ~tag:"m" ~info:"x" ();
  Trace.record tr ~time:2.5 ~node:1 ~kind:Trace.Deliver ~tag:"m" ();
  let s = Format.asprintf "%a" Trace.pp tr in
  check "mentions send" true
    (String.length s > 0
    && Trace.kind_to_string Trace.Send = "send"
    && Trace.kind_to_string Trace.Drop = "drop")

let () =
  Alcotest.run "sim"
    [
      ( "engine",
        [
          Alcotest.test_case "initial" `Quick test_engine_initial;
          Alcotest.test_case "time order" `Quick test_engine_time_order;
          Alcotest.test_case "fifo ties" `Quick test_engine_fifo_ties;
          Alcotest.test_case "nested scheduling" `Quick test_engine_nested_scheduling;
          Alcotest.test_case "zero delay" `Quick test_engine_zero_delay;
          Alcotest.test_case "negative delay" `Quick test_engine_negative_delay;
          Alcotest.test_case "schedule_at past" `Quick test_engine_schedule_at_past;
          Alcotest.test_case "run until" `Quick test_engine_until;
          Alcotest.test_case "max events" `Quick test_engine_max_events;
          Alcotest.test_case "every" `Quick test_engine_every;
          Alcotest.test_case "determinism" `Quick test_engine_determinism;
          Alcotest.test_case "fork rng" `Quick test_engine_fork_rng_distinct;
        ] );
      ( "latency",
        [
          Alcotest.test_case "constant" `Quick test_latency_constant;
          Alcotest.test_case "uniform" `Quick test_latency_uniform;
          Alcotest.test_case "exponential floor" `Quick test_latency_exponential_floor;
          Alcotest.test_case "sample means" `Quick test_latency_sample_means;
          Alcotest.test_case "validation" `Quick test_latency_validation;
          Alcotest.test_case "defaults" `Quick test_latency_defaults_positive;
        ] );
      ( "trace",
        [
          Alcotest.test_case "roundtrip" `Quick test_trace_roundtrip;
          Alcotest.test_case "pp" `Quick test_trace_pp;
        ] );
      ( "misc",
        [
          Alcotest.test_case "every + max_events" `Quick
            test_engine_every_unbounded_with_budget;
          Alcotest.test_case "latency to_string" `Quick test_latency_to_string;
        ] );
    ]
