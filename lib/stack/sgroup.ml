module Net = Causalb_net.Net
module Wire = Causalb_util.Wire

(* --- frames --- *)

type 'v codec = {
  header : Wire.writer -> 'v -> unit;
  payload : Wire.writer -> 'v -> unit;
  decode : Wire.reader -> 'v;
}

type 'v framed = {
  frame : Wire.frame;
  payload_bytes : int;
  mutable view : 'v option;
}

(* Every envelope codec puts the application payload last, so one writer
   mark before it splits the frame into control and payload spans. *)
let encode pool codec v =
  let w = Wire.writer pool in
  codec.header w v;
  let mark = Wire.written w in
  codec.payload w v;
  let payload_bytes = Wire.written w - mark in
  { frame = Wire.finish w; payload_bytes; view = None }

let view fr ~dec =
  match fr.view with
  | Some v -> v
  | None ->
    let r = Wire.reader fr.frame in
    let v = dec r in
    Wire.expect_end r;
    fr.view <- Some v;
    v

(* A plain group hands the value itself to the network: one box per send,
   shared by every copy like the value it wraps. *)
type 'v packet = Plain of 'v | Framed of 'v framed

(* --- groups --- *)

type ('m, 'v) t = {
  net : 'v packet Net.t;
  codec : 'v codec option;
  pool : Wire.pool;
  metrics : 'm -> Metrics.t;
  mutable members : 'm array;
  make : ('m, 'v) t -> int -> 'm;
  install : ('m, 'v) t -> int -> unit;
}

let pack t v =
  match t.codec with
  | None -> Plain v
  | Some codec -> Framed (encode t.pool codec v)

(* In-memory values keep [Net]'s abstract default size (1 per copy) and
   pass no [~size], so a plain copy allocates nothing; frames book their
   real length. *)
let send_packet net ~src ~dst p =
  match p with
  | Plain _ -> Net.send net ~src ~dst p
  | Framed fr -> Net.send net ~src ~dst ~size:(Wire.length fr.frame) p

let unpack t m = function
  | Plain v -> v
  | Framed fr -> (
    let len = Wire.length fr.frame in
    Metrics.on_wire_split (t.metrics m) ~control:(len - fr.payload_bytes)
      ~payload:fr.payload_bytes;
    match t.codec with
    | Some codec -> view fr ~dec:codec.decode
    | None -> invalid_arg "Sgroup: framed packet on a group without a codec")

let install_plain receive t node =
  Net.set_handler t.net node (fun ~src:_ p ->
      let m = t.members.(node) in
      receive m (unpack t m p))

let install_routed receive t node =
  Net.set_handler t.net node (fun ~src p ->
      let m = t.members.(node) in
      receive m ~src
        ~emit:(fun ~dst -> send_packet t.net ~src:node ~dst p)
        (unpack t m p))

let build ?codec net ~metrics ~member ~install =
  let t =
    { net; codec; pool = Wire.pool (); metrics; members = [||];
      make = member; install }
  in
  t.members <- Array.init (Net.nodes net) (member t);
  Array.iteri (fun node _ -> install t node) t.members;
  t

let create ?codec net ~metrics ~member ~receive =
  build ?codec net ~metrics ~member ~install:(install_plain receive)

let create_routed ?codec net ~metrics ~member ~receive =
  build ?codec net ~metrics ~member ~install:(install_routed receive)

let bcast t ~src ?self v =
  match pack t v with
  | Plain _ as p -> Net.broadcast t.net ~src ?self p
  | Framed fr as p ->
    Net.broadcast t.net ~src ?self ~size:(Wire.length fr.frame) p

let fanout t ~src v =
  let p = pack t v in
  fun ~dst -> send_packet t.net ~src ~dst p

let join t =
  let id = Net.add_node t.net in
  let m = t.make t id in
  let members = Array.make (id + 1) m in
  Array.blit t.members 0 members 0 (Array.length t.members);
  t.members <- members;
  t.install t id;
  id

let leave t node = Net.remove_node t.net node

let net t = t.net

let engine t = Net.engine t.net

let size t = Array.length t.members

let member t i = t.members.(i)

let members t = t.members

let fold f acc t = Array.fold_left f acc t.members

let mapi f t = List.init (size t) (fun i -> f i t.members.(i))
