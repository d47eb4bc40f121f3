(* In-memory span recorder for the traced run.

   A span wraps one public call the benchmark makes into a layer.  Spans
   live in preallocated parallel arrays (large enough to land on the
   major heap, so growing them never counts as minor words) and are
   reduced to per-kind totals and self times at the end of each rep.
   With recording off, [enter] returns -1 and [leave] does nothing: the
   untimed path allocates nothing. *)

type kind =
  | Compose       (* Stack.compose *)
  | Net_create    (* Net.create *)
  | Group_create  (* Pcbcast.Group.create *)
  | Generate      (* Campaign.generate *)
  | Submit        (* Stack.submit *)
  | Bcast         (* Pcbcast.Group.bcast *)
  | Run           (* Stack.run / Engine.run *)
  | App           (* the benchmark's own on_deliver callback *)
  | Recheck       (* Drivers.recheck_pc *)
  | Check_fifo    (* Trace_check.fifo *)
  | Check_causal  (* Drivers.founders_view + Trace_check.causal *)
  | Run_case      (* Campaign.run_case *)

let kinds =
  [| Compose; Net_create; Group_create; Generate; Submit; Bcast; Run; App;
     Recheck; Check_fifo; Check_causal; Run_case |]

let index = function
  | Compose -> 0 | Net_create -> 1 | Group_create -> 2 | Generate -> 3
  | Submit -> 4 | Bcast -> 5 | Run -> 6 | App -> 7 | Recheck -> 8
  | Check_fifo -> 9 | Check_causal -> 10 | Run_case -> 11

let name = function
  | Compose -> "stack.compose" | Net_create -> "net.create"
  | Group_create -> "pc.group_create" | Generate -> "campaign.generate"
  | Submit -> "stack.submit" | Bcast -> "pc.bcast" | Run -> "sim.run"
  | App -> "stack.app" | Recheck -> "check.recheck_pc"
  | Check_fifo -> "check.fifo" | Check_causal -> "check.causal"
  | Run_case -> "campaign.run_case"

let on = ref false
let run_id = ref 0
let n = ref 0
let cap = ref 0
let kind = ref [||]
let start = ref [||]
let stop = ref [||]
let parent = ref [||]
let current = ref (-1)

(* No closure here: growing mid-rep must add no minor words, since the
   determinism check compares them across reps. *)
let grow a c fill =
  let b = Array.make c fill in
  Array.blit a 0 b 0 !n;
  b

let reserve c =
  kind := grow !kind c 0;
  start := grow !start c 0.;
  stop := grow !stop c 0.;
  parent := grow !parent c (-1);
  cap := c

let () = reserve 65536

let enter k =
  if not !on then -1
  else begin
    if !n = !cap then reserve (2 * !cap);
    let i = !n in
    incr n;
    !kind.(i) <- index k;
    !parent.(i) <- !current;
    current := i;
    !start.(i) <- Unix.gettimeofday ();
    i
  end

let leave i =
  if i >= 0 then begin
    !stop.(i) <- Unix.gettimeofday ();
    current := !parent.(i)
  end

(* Per-kind reduction of the spans recorded since the last [reset]:
   count, total duration, self time (duration minus the part covered by
   direct children) and median duration, in seconds. *)
type summary = {
  count : int array;
  total : float array;
  self : float array;
  median : float array;
}

let summarize () =
  let k = Array.length kinds in
  let count = Array.make k 0 and total = Array.make k 0. in
  let self = Array.make k 0. in
  let child = Array.make !n 0. in
  for i = 0 to !n - 1 do
    let d = !stop.(i) -. !start.(i) in
    let p = !parent.(i) in
    if p >= 0 then child.(p) <- child.(p) +. d;
    count.(!kind.(i)) <- count.(!kind.(i)) + 1
  done;
  let durations = Array.map (fun c -> Array.make c 0.) count in
  let fill = Array.make k 0 in
  for i = 0 to !n - 1 do
    let d = !stop.(i) -. !start.(i) in
    let j = !kind.(i) in
    total.(j) <- total.(j) +. d;
    self.(j) <- self.(j) +. (d -. child.(i));
    durations.(j).(fill.(j)) <- d;
    fill.(j) <- fill.(j) + 1
  done;
  let median ds =
    let c = Array.length ds in
    if c = 0 then 0.
    else begin
      Array.sort Float.compare ds;
      if c mod 2 = 1 then ds.(c / 2) else (ds.((c / 2) - 1) +. ds.(c / 2)) /. 2.
    end
  in
  { count; total; self; median = Array.map median durations }

(* One line per span: run id, span id, parent id, name, start and end
   in microseconds relative to the first span of the rep. *)
let write oc =
  let t0 = if !n > 0 then !start.(0) else 0. in
  for i = 0 to !n - 1 do
    Printf.fprintf oc "%d\t%d\t%d\t%s\t%.1f\t%.1f\n" !run_id i !parent.(i)
      (name kinds.(!kind.(i)))
      ((!start.(i) -. t0) *. 1e6)
      ((!stop.(i) -. t0) *. 1e6)
  done

let reset () =
  n := 0;
  current := -1;
  incr run_id
