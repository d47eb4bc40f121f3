(* Tests for the binary wire codec and the framed delivery path.

   Three layers of assurance, mirroring the module layering:

   1. Wire primitives: qcheck round-trips (decode . encode = id) for
      varints, zigzag, strings (arbitrary bytes), bools; every strict
      prefix of a valid frame raises [Corrupt] — the decoder never
      returns garbage for truncated input.

   2. Codec: round-trips for labels (display name preserved exactly),
      deps (canonical after decode), clocks, messages, envelopes; a
      codec hop in front of the indexed BSS engine changes nothing
      against the frozen seed oracle in [Causalb_reference].

   3. Framed groups: for BSS, OSend, Psync and PC, a group run with its
      codec is envelope-for-envelope identical to the plain run for the
      same seed and workload — encode-once/decode-many is an
      optimisation, not a semantics change — and the byte accounting
      (Metrics.wire_bytes, Net.bytes_sent) moves by real frame
      lengths. *)

module Wire = Causalb_util.Wire
module Label = Causalb_graph.Label
module Dep = Causalb_graph.Dep
module Vc = Causalb_clock.Vector_clock
module Latency = Causalb_sim.Latency
module Net = Causalb_net.Net
module Message = Causalb_core.Message
module Codec = Causalb_core.Codec
module Bss = Causalb_core.Bss
module Sgroup = Causalb_stackbase.Sgroup
module Pcb = Causalb_core.Pcbcast
module Rbss = Causalb_reference.Bss
module Metrics = Causalb_stackbase.Metrics

let test ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let pool = Wire.pool ()

let roundtrip enc dec v = Codec.decode dec (Codec.encode pool enc v)

(* --- 1. primitives --- *)

let prop_uint_roundtrip =
  test "wire: uint round-trip" QCheck2.Gen.(0 -- max_int) (fun n ->
      roundtrip Wire.uint Wire.r_uint n = n)

let prop_int_roundtrip =
  test "wire: zigzag int round-trip" QCheck2.Gen.int (fun n ->
      roundtrip Wire.int Wire.r_int n = n)

let prop_str_roundtrip =
  test "wire: string round-trip (raw bytes)"
    QCheck2.Gen.(string_size ~gen:(char_range '\000' '\255') (0 -- 64))
    (fun s -> roundtrip Wire.str Wire.r_str s = s)

let test_extremes () =
  List.iter
    (fun n -> check_int "zigzag extreme" n (roundtrip Wire.int Wire.r_int n))
    [ max_int; min_int; 0; -1; 1; min_int + 1; max_int - 1 ];
  check_int "uint max" max_int (roundtrip Wire.uint Wire.r_uint max_int);
  (* small magnitudes of either sign stay in one byte *)
  let size enc v = Wire.length (Codec.encode pool enc v) in
  check_int "zigzag -64 is 1 byte" 1 (size Wire.int (-64));
  check_int "zigzag 63 is 1 byte" 1 (size Wire.int 63);
  check_int "uint 127 is 1 byte" 1 (size Wire.uint 127);
  check "uint rejects negatives" true
    (try
       ignore (Codec.encode pool Wire.uint (-1));
       false
     with Invalid_argument _ -> true);
  check "u8 rejects 256" true
    (try
       ignore (Codec.encode pool (fun w v -> Wire.u8 w v) 256);
       false
     with Invalid_argument _ -> true)

(* Large-magnitude varints: the PC header carries member ids and
   per-origin sequence numbers as bare varints, and long-lived dynamic
   groups push both past the one-, two- and three-byte boundaries —
   ids beyond 2^21, seqs beyond 2^28 must round-trip and stay compact. *)
let prop_varint_header_magnitudes =
  test "wire: varints at PC-header magnitudes"
    QCheck2.Gen.(
      pair (0x200000 -- 0x2000000) (0x10000000 -- 0x10000000000))
    (fun (id, seq) ->
      roundtrip Wire.uint Wire.r_uint id = id
      && roundtrip Wire.uint Wire.r_uint seq = seq
      && roundtrip Wire.int Wire.r_int (-seq) = -seq)

let test_varint_magnitude_sizes () =
  let size v = Wire.length (Codec.encode pool Wire.uint v) in
  (* 7 bits per byte: the boundaries where a varint grows *)
  check_int "2^21 id is 4 bytes" 4 (size 0x200000);
  check_int "2^28 seq is 5 bytes" 5 (size 0x10000000);
  check_int "2^28 - 1 is 4 bytes" 4 (size 0xFFFFFFF);
  List.iter
    (fun v -> check_int "uint large round-trip" v
        (roundtrip Wire.uint Wire.r_uint v))
    [ 0x200000; 0x200001; 0x10000000; 0x123456789A; max_int ]

(* --- generators for protocol values --- *)

let label_gen =
  let open QCheck2.Gen in
  int_range 0 7 >>= fun origin ->
  int_range 0 1000 >>= fun seq ->
  oneof
    [
      return (Label.make ~origin ~seq ());
      ( string_size ~gen:printable (1 -- 8) >|= fun name ->
        Label.make ~name ~origin ~seq () );
    ]

let dep_gen =
  let open QCheck2.Gen in
  oneof
    [
      return Dep.null;
      (label_gen >|= Dep.after);
      (list_size (1 -- 4) label_gen >|= Dep.after_all);
      (list_size (1 -- 4) label_gen >|= Dep.after_any);
    ]

let clock_gen =
  let open QCheck2.Gen in
  int_range 1 8 >>= fun n ->
  array_size (return n) (int_range 0 1000) >|= Vc.of_array

let message_gen =
  let open QCheck2.Gen in
  label_gen >>= fun label ->
  int_range 0 7 >>= fun sender ->
  dep_gen >>= fun dep ->
  string_size ~gen:(char_range '\000' '\255') (0 -- 16) >|= fun payload ->
  Message.make ~label ~sender ~dep payload

let envelope_gen =
  let open QCheck2.Gen in
  int_range 0 7 >>= fun sender ->
  clock_gen >>= fun stamp ->
  string_size ~gen:printable (0 -- 8) >>= fun tag ->
  string_size ~gen:printable (0 -- 16) >|= fun payload ->
  { Bss.sender; stamp; tag; payload }

(* Full equality including the display-name structure the codec must
   preserve (Label.equal ignores it on purpose). *)
let label_eq a b =
  Label.equal a b && Label.display a = Label.display b

let dep_eq a b =
  match (a, b) with
  | Dep.Null, Dep.Null -> true
  | Dep.After x, Dep.After y -> label_eq x y
  | Dep.After_all xs, Dep.After_all ys | Dep.After_any xs, Dep.After_any ys ->
    List.length xs = List.length ys && List.for_all2 label_eq xs ys
  | _ -> false

(* --- 2. codec round-trips --- *)

let prop_label_roundtrip =
  test "codec: label round-trip (display preserved)" label_gen (fun l ->
      label_eq l (roundtrip Codec.put_label Codec.get_label l))

let prop_dep_roundtrip =
  test "codec: dep round-trip" dep_gen (fun d ->
      dep_eq d (roundtrip Codec.put_dep Codec.get_dep d))

let prop_clock_roundtrip =
  test "codec: clock round-trip" clock_gen (fun v ->
      Vc.equal v (roundtrip Codec.put_clock Codec.get_clock v))

let prop_message_roundtrip =
  test "codec: message round-trip" message_gen (fun m ->
      let m' =
        roundtrip (Codec.put_message Codec.put_str)
          (Codec.get_message Codec.get_str)
          m
      in
      label_eq (Message.label m) (Message.label m')
      && Message.sender m = Message.sender m'
      && dep_eq (Message.dep m) (Message.dep m')
      && Message.payload m = Message.payload m')

let prop_envelope_roundtrip =
  test "codec: envelope round-trip" envelope_gen (fun e ->
      let e' =
        roundtrip
          (Codec.put_envelope Codec.put_str)
          (Codec.get_envelope Codec.get_str)
          e
      in
      e'.Bss.sender = e.Bss.sender
      && Vc.equal e'.Bss.stamp e.Bss.stamp
      && e'.Bss.tag = e.Bss.tag
      && e'.Bss.payload = e.Bss.payload)

(* PC wire frames: every discriminator case, with ids and seqs at the
   magnitudes a long-lived dynamic group reaches. *)
let pc_wire_gen =
  let open QCheck2.Gen in
  let* origin = oneof [ int_range 0 7; int_range 0x200000 0x2000000 ] in
  let* seq = oneof [ int_range 0 1000; int_range 0x10000000 0x20000000 ] in
  let* tag = string_size ~gen:printable (0 -- 8) in
  let* body =
    oneof
      [
        ( string_size ~gen:(char_range '\000' '\255') (0 -- 16) >|= fun p ->
          Pcb.App p );
        (int_range 0 0x300000 >|= fun t -> Pcb.Ctrl (Pcb.Unlock { target = t }));
        (int_range 0 0x300000 >|= fun n -> Pcb.Ctrl (Pcb.Joined { node = n }));
      ]
  in
  oneofl [ Pcb.Env { Pcb.origin; seq; tag; body }; Pcb.Lock ]

let prop_pc_roundtrip =
  test "codec: pc wire round-trip" pc_wire_gen (fun w ->
      roundtrip (Codec.put_pc Codec.put_str) (Codec.get_pc Codec.get_str) w
      = w)

(* The split the metrics layer charges: an App frame's control span is
   the whole frame minus the payload bytes; control frames are all
   control.  [Codec.pc] split into header and payload must write exactly
   what [put_pc] writes. *)
let test_pc_encode_split () =
  let codec = Codec.pc Codec.put_str Codec.get_str in
  let encode w =
    let fr = Sgroup.encode pool codec w in
    (fr.Sgroup.frame, fr.Sgroup.payload_bytes)
  in
  let app =
    Pcb.Env { Pcb.origin = 3; seq = 9; tag = "t"; body = Pcb.App "payload" }
  in
  let frame, span = encode app in
  check "pc app payload span positive" true (span > 0);
  check "pc app span < frame" true (span < Wire.length frame);
  check "pc app decodes" true
    (Codec.decode (Codec.get_pc Codec.get_str) frame = app);
  check "pc split frame = put_pc frame" true
    (Wire.to_string frame
    = Wire.to_string (Codec.encode pool (Codec.put_pc Codec.put_str) app));
  let lock_frame, lock_span = encode Pcb.Lock in
  check_int "pc lock is all control" 0 lock_span;
  check "pc lock decodes" true
    (Codec.decode (Codec.get_pc Codec.get_str) lock_frame = Pcb.Lock);
  let ctrl =
    Pcb.Env
      { Pcb.origin = 1; seq = 0; tag = ""; body = Pcb.Ctrl (Pcb.Joined { node = 5 }) }
  in
  let _, ctrl_span = encode ctrl in
  check_int "pc ctrl is all control" 0 ctrl_span

(* --- truncation hardening --- *)

(* A decoder over a strict prefix must fail cleanly: it needed every
   byte of the full frame, so some read hits the cut and raises
   [Corrupt] — never a silent wrong value, never an unchecked crash. *)
let prop_truncated_fails =
  test "codec: every strict prefix of a frame raises Corrupt"
    QCheck2.Gen.(pair message_gen (0 -- 1000))
    (fun (m, cut) ->
      let frame = Codec.encode pool (Codec.put_message Codec.put_str) m in
      let n = Wire.length frame in
      QCheck2.assume (n > 0);
      let cut = cut mod n in
      match
        Codec.decode (Codec.get_message Codec.get_str) (Wire.prefix frame cut)
      with
      | _ -> false
      | exception Wire.Corrupt _ -> true)

let test_trailing_bytes () =
  let frame = Codec.encode pool Wire.uint 7 in
  let padded = Wire.of_string (Wire.to_string frame ^ "\000") in
  check "trailing bytes raise Corrupt" true
    (match Codec.decode Wire.r_uint padded with
    | _ -> false
    | exception Wire.Corrupt _ -> true);
  check "bad dep tag raises Corrupt" true
    (match Codec.decode Codec.get_dep (Wire.of_string "\009") with
    | _ -> false
    | exception Wire.Corrupt _ -> true);
  check "clock of size 0 raises Corrupt" true
    (match Codec.decode Codec.get_clock (Wire.of_string "\000") with
    | _ -> false
    | exception Wire.Corrupt _ -> true)

(* --- shared views decode once --- *)

let test_view_memoized () =
  let e =
    {
      Bss.sender = 1;
      stamp = Vc.of_array [| 1; 2; 3 |];
      tag = "t";
      payload = "p";
    }
  in
  let fr = Sgroup.encode pool (Codec.bss Codec.put_str Codec.get_str) e in
  let dec = Codec.get_envelope Codec.get_str in
  let v1 = Sgroup.view fr ~dec in
  let v2 = Sgroup.view fr ~dec in
  check "second view is the first (memoized)" true (v1 == v2);
  check "view decodes the envelope" true (Vc.equal v1.Bss.stamp e.Bss.stamp)

(* --- 3. codec hop vs the frozen seed oracle --- *)

(* Same arrival sequence: raw envelopes into the reference engine,
   encode/decode-hopped envelopes into the indexed engine.  Any codec
   bug that perturbs a stamp or tag shows up as a delivered-order
   mismatch against the oracle. *)
let bss_codec_oracle_gen =
  let open QCheck2.Gen in
  int_range 2 4 >>= fun nodes ->
  list_size (0 -- 24)
    (triple (int_range 0 (nodes - 1))
       (int_range 1 6)
       (list_size (return nodes) (int_range 0 6)))
  >|= fun raw -> (nodes, raw)

let prop_codec_hop_vs_oracle =
  test "codec: encode/decode hop = oracle on the BSS engine"
    bss_codec_oracle_gen
    (fun (nodes, raw) ->
      let reference = Rbss.member ~id:0 ~group_size:nodes () in
      let hopped = Bss.member ~id:0 ~group_size:nodes () in
      let enc = Codec.put_envelope Codec.put_str in
      let dec = Codec.get_envelope Codec.get_str in
      List.iteri
        (fun i (s, seq, comps) ->
          let comps = Array.of_list comps in
          comps.(s) <- seq;
          let e =
            {
              Bss.sender = s;
              stamp = Vc.of_array comps;
              tag = Printf.sprintf "%d:%d" s i;
              payload = "x";
            }
          in
          Rbss.receive reference e;
          Bss.receive hopped (Codec.decode dec (Codec.encode pool enc e)))
        raw;
      Rbss.delivered_tags reference = Bss.delivered_tags hopped
      && Rbss.pending_count reference = Bss.pending_count hopped
      && Rbss.buffered_ever reference = Bss.buffered_ever hopped)

(* --- framed groups = plain groups, same seed --- *)

let lat () = Latency.lognormal ~mu:0.3 ~sigma:0.9 ()

(* Explicit deps for OSend: op i depends on ops i-1 and i/2 — a
   dependency chain plus cross links, enough reordering pressure to park
   messages. *)
let workload =
  {
    Framed_table.nodes = 4;
    ops = 60;
    dep =
      (fun sent i ->
        if i = 0 then Dep.null
        else
          Dep.after_all
            (List.map (fun j -> sent.(j))
               (List.sort_uniq Int.compare [ i - 1; i / 2 ])));
  }

let nets =
  {
    Framed_table.make =
      (fun engine ->
        Net.create engine ~nodes:workload.Framed_table.nodes ~latency:(lat ())
          ());
  }

(* The two runs share nothing but the seed, so equality means the framed
   path made exactly the same RNG draws and deliveries. *)
let test_framed_equiv (e : Framed_table.engine) seeds () =
  let name = e.Framed_table.name in
  List.iter
    (fun seed ->
      let plain = e.Framed_table.run ~framed:false workload nets ~seed in
      let framed = e.Framed_table.run ~framed:true workload nets ~seed in
      check (name ^ ": framed orders = plain orders (all members)") true
        (plain.Framed_table.delivered = framed.Framed_table.delivered);
      List.iter
        (fun d ->
          check_int (name ^ ": everyone delivered all")
            workload.Framed_table.ops (List.length d))
        framed.Framed_table.delivered;
      (* plain path books the abstract default size (1/copy); framed
         books real frame lengths, which can only be bigger *)
      check (name ^ ": framed bytes are real") true
        (framed.Framed_table.bytes_sent > plain.Framed_table.bytes_sent);
      (* every copy that crosses the wire is charged on send and again on
         receive, and nothing is dropped here, so the two sides of the
         wire agree exactly *)
      check_int (name ^ ": received bytes = sent bytes")
        framed.Framed_table.bytes_sent (Framed_table.wire_bytes framed);
      let m = List.hd framed.Framed_table.metrics in
      check (name ^ ": bytes/delivery populated") true
        (Metrics.bytes_per_delivery m > 0.0))
    seeds

let framed_cases =
  List.map
    (fun (e, seeds) ->
      Alcotest.test_case
        (e.Framed_table.name ^ " framed = plain (same seed)")
        `Quick (test_framed_equiv e seeds))
    Framed_table.
      [ (bss, [ 1; 7; 42; 1337 ]); (psync, [ 3; 11; 99 ]);
        (osend, [ 2; 13; 77 ]); (pc, [ 5; 21; 64 ]) ]

let () =
  Alcotest.run "wire"
    [
      ( "primitives",
        [
          prop_uint_roundtrip;
          prop_int_roundtrip;
          prop_str_roundtrip;
          prop_varint_header_magnitudes;
          Alcotest.test_case "extremes and rejections" `Quick test_extremes;
          Alcotest.test_case "varint magnitude boundaries" `Quick
            test_varint_magnitude_sizes;
        ] );
      ( "codec",
        [
          prop_label_roundtrip;
          prop_dep_roundtrip;
          prop_clock_roundtrip;
          prop_message_roundtrip;
          prop_envelope_roundtrip;
          prop_pc_roundtrip;
          Alcotest.test_case "pc encode split" `Quick test_pc_encode_split;
          prop_truncated_fails;
          Alcotest.test_case "trailing/corrupt frames" `Quick
            test_trailing_bytes;
          Alcotest.test_case "shared view decodes once" `Quick
            test_view_memoized;
          prop_codec_hop_vs_oracle;
        ] );
      ("framed groups", framed_cases);
    ]
