type kind = Send | Receive | Deliver | Release | Drop | Mark

type record = {
  time : float;
  node : int;
  kind : kind;
  tag : string;
  info : string;
}

type transport =
  | Sent_to
  | Sent_all
  | Received_from
  | Lost_partition
  | Lost_loss
  | Lost_departed_dst
  | Lost_departed_src
  | Node_added
  | Node_removed

(* Column storage.  Row [i] is a time plus two ints:

   - [meta] packs [node lsl 8 lor form lsl 3 lor kind]: [asr 8] recovers
     the node (negative ids included), the low three bits the kind, and
     bits 3-7 the form of the info text — 0 for a free-form string,
     [1 + transport constructor] for a transport record;
   - [args] packs [tag lsl 31 lor info], the interned ids of the tag and
     the info string, for form 0; for a transport record it is the peer
     id, and the form implies the tag.

   Each column is a spine of fixed-size chunks, so appending never
   copies a row and growth leaves no dead column behind.  A chunk of 512
   cells is above the minor heap's size limit: it is allocated straight
   into the major heap and never promoted, so appending a record (three
   unboxed cells) allocates no minor words.  The [info] text of a
   transport record is rendered only when the record is materialised
   ({!get}). *)
let chunk_bits = 9
let chunk = 1 lsl chunk_bits
let mask = chunk - 1

type t = {
  mutable times : Float.Array.t array;
  mutable meta : int array array;
  mutable args : int array array;
  mutable n : int;
  mutable cap : int; (* rows the allocated chunks hold *)
  mutable strings : string array; (* interned id -> string *)
  mutable nstrings : int;
  ids : (string, int) Hashtbl.t; (* string -> interned id *)
}

let kind_code = function
  | Send -> 0
  | Receive -> 1
  | Deliver -> 2
  | Release -> 3
  | Drop -> 4
  | Mark -> 5

let kind_of_code = function
  | 0 -> Send
  | 1 -> Receive
  | 2 -> Deliver
  | 3 -> Release
  | 4 -> Drop
  | _ -> Mark

(* Form [k + 1] of the info text is the [k]-th transport constructor;
   form 0 is a free-form string. *)
let transports =
  [|
    Sent_to; Sent_all; Received_from; Lost_partition; Lost_loss;
    Lost_departed_dst; Lost_departed_src; Node_added; Node_removed;
  |]

let transport_code = function
  | Sent_to -> 1
  | Sent_all -> 2
  | Received_from -> 3
  | Lost_partition -> 4
  | Lost_loss -> 5
  | Lost_departed_dst -> 6
  | Lost_departed_src -> 7
  | Node_added -> 8
  | Node_removed -> 9

let transport_kind = function
  | Sent_to | Sent_all -> Send
  | Received_from -> Receive
  | Lost_partition | Lost_loss | Lost_departed_dst | Lost_departed_src -> Drop
  | Node_added | Node_removed -> Mark

let transport_info ev peer =
  match ev with
  | Sent_to -> Printf.sprintf "dst=%d" peer
  | Sent_all -> "bcast"
  | Received_from -> Printf.sprintf "from=%d" peer
  | Lost_partition -> Printf.sprintf "partition dst=%d" peer
  | Lost_loss -> Printf.sprintf "loss dst=%d" peer
  | Lost_departed_dst -> Printf.sprintf "departed dst=%d" peer
  | Lost_departed_src -> Printf.sprintf "departed from=%d" peer
  | Node_added -> "net:add_node"
  | Node_removed -> "net:remove_node"

(* Two interned ids share one 63-bit cell. *)
let id_mask = (1 lsl 31) - 1

let intern t s =
  match Hashtbl.find t.ids s with
  | id -> id
  | exception Not_found ->
    let id = t.nstrings in
    if id > id_mask then failwith "Trace: more than 2^31 distinct strings";
    if id = Array.length t.strings then begin
      let bigger = Array.make (2 * id) "" in
      Array.blit t.strings 0 bigger 0 id;
      t.strings <- bigger
    end;
    t.strings.(id) <- s;
    t.nstrings <- id + 1;
    Hashtbl.add t.ids s id;
    id

(* Ids fixed at creation: the tags transport records imply, so
   recording one never touches the intern table. *)
let empty_id = 0
let join_id = 1
let leave_id = 2

let empty ~spine ~strings ~nstrings ~ids =
  {
    times = Array.make spine (Float.Array.create 0);
    meta = Array.make spine [||];
    args = Array.make spine [||];
    n = 0;
    cap = 0;
    strings;
    nstrings;
    ids;
  }

let spine_for capacity = max 1 ((capacity + mask) / chunk)

let create ?(capacity = 64) () =
  let t =
    empty ~spine:(spine_for capacity) ~strings:(Array.make 16 "") ~nstrings:0
      ~ids:(Hashtbl.create 64)
  in
  List.iter (fun s -> ignore (intern t s)) [ ""; "join"; "leave" ];
  t

let add_chunk t =
  let c = t.cap lsr chunk_bits in
  if c = Array.length t.meta then begin
    let widen a =
      let b = Array.make (2 * c) a.(0) in
      Array.blit a 0 b 0 c;
      b
    in
    t.times <- widen t.times;
    t.meta <- widen t.meta;
    t.args <- widen t.args
  end;
  t.times.(c) <- Float.Array.make chunk 0.0;
  t.meta.(c) <- Array.make chunk 0;
  t.args.(c) <- Array.make chunk 0;
  t.cap <- t.cap + chunk

let push t ~time ~meta ~arg =
  let i = t.n in
  if i = t.cap then add_chunk t;
  let c = i lsr chunk_bits and o = i land mask in
  Float.Array.unsafe_set (Array.unsafe_get t.times c) o time;
  Array.unsafe_set (Array.unsafe_get t.meta c) o meta;
  Array.unsafe_set (Array.unsafe_get t.args c) o arg;
  t.n <- i + 1

(* Cell [i] of an int column; [i] must be a recorded row. *)
let cell col i =
  Array.unsafe_get (Array.unsafe_get col (i lsr chunk_bits)) (i land mask)

let time_of t i =
  Float.Array.unsafe_get
    (Array.unsafe_get t.times (i lsr chunk_bits))
    (i land mask)

let record t ~time ~node ~kind ~tag ?(info = "") () =
  let tag = intern t tag in
  let info = intern t info in
  push t ~time ~meta:((node lsl 8) lor kind_code kind)
    ~arg:((tag lsl 31) lor info)

let record_transport t ~time ~node ev ~peer =
  let kind = kind_code (transport_kind ev) in
  push t ~time ~meta:((node lsl 8) lor (transport_code ev lsl 3) lor kind)
    ~arg:peer

let length t = t.n

let check_row t who i =
  if i < 0 || i >= t.n then
    invalid_arg ("Trace." ^ who ^ ": index out of range")

let node_at t i =
  check_row t "node_at" i;
  cell t.meta i asr 8

let kind_at t i =
  check_row t "kind_at" i;
  kind_of_code (cell t.meta i land 7)

let form t i = (cell t.meta i lsr 3) land 31

let tag_of_row t i =
  match form t i with
  | 0 -> cell t.args i lsr 31
  | f -> (
    match transports.(f - 1) with
    | Node_added -> join_id
    | Node_removed -> leave_id
    | _ -> empty_id)

let tag_id t i =
  check_row t "tag_id" i;
  tag_of_row t i

let string_count t = t.nstrings

let string_of_id t id =
  if id < 0 || id >= t.nstrings then
    invalid_arg "Trace.string_of_id: unknown id";
  t.strings.(id)

let find_string t s = Hashtbl.find_opt t.ids s

let info_of t i =
  let arg = cell t.args i in
  match form t i with
  | 0 -> t.strings.(arg land id_mask)
  | f -> transport_info transports.(f - 1) arg

let unsafe_get t i =
  let m = cell t.meta i in
  {
    time = time_of t i;
    node = m asr 8;
    kind = kind_of_code (m land 7);
    tag = t.strings.(tag_of_row t i);
    info = info_of t i;
  }

let get t i =
  check_row t "get" i;
  unsafe_get t i

let iter t f =
  for i = 0 to t.n - 1 do
    f (unsafe_get t i)
  done

let fold t ~init ~f =
  let acc = ref init in
  for i = 0 to t.n - 1 do
    acc := f !acc (unsafe_get t i)
  done;
  !acc

(* Row copies share the interned ids, so the string table is copied
   whole rather than rebuilt. *)
let keep_nodes t keep =
  let out =
    empty ~spine:(spine_for t.n) ~strings:(Array.copy t.strings)
      ~nstrings:t.nstrings ~ids:(Hashtbl.copy t.ids)
  in
  for i = 0 to t.n - 1 do
    let meta = cell t.meta i in
    if keep (meta asr 8) then
      push out ~time:(time_of t i) ~meta ~arg:(cell t.args i)
  done;
  out

let kind_to_string = function
  | Send -> "send"
  | Receive -> "recv"
  | Deliver -> "dlvr"
  | Release -> "rlse"
  | Drop -> "drop"
  | Mark -> "mark"

let pp_record ppf r =
  Format.fprintf ppf "%10.3f n%d %s %s%s" r.time r.node
    (kind_to_string r.kind) r.tag
    (if r.info = "" then "" else " " ^ r.info)

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  iter t (fun r -> Format.fprintf ppf "%a@," pp_record r);
  Format.fprintf ppf "@]"
