module Net = Causalb_net.Net
module Engine = Causalb_sim.Engine
module Label = Causalb_graph.Label
module Dep = Causalb_graph.Dep
module Sgroup = Causalb_stackbase.Sgroup

type 'a member = {
  id : int;
  engine_member : 'a Osend.t;
  mutable leaves : Label.Set.t;
      (* received messages that no received message depends on — the
         context the next send attaches *)
}

type 'a t = {
  sg : ('a member, 'a Message.t) Sgroup.t;
  seqs : int array;
  mutable context_total : int;
}

(* Track leaves from *received* (not merely delivered) messages: context
   is what the process has seen, and the graph keeps it consistent. *)
let note_received m (msg : 'a Message.t) =
  let ancestors = Dep.ancestors (Message.dep msg) in
  m.leaves <-
    Label.Set.add (Message.label msg)
      (List.fold_left (fun acc a -> Label.Set.remove a acc) m.leaves ancestors)

let create ?codec net ?(on_deliver = fun ~node:_ ~time:_ _ -> ()) () =
  let n = Net.nodes net in
  let engine = Net.engine net in
  let sg =
    Sgroup.create ?codec net
      ~metrics:(fun m -> Osend.metrics m.engine_member)
      ~member:(fun _ id ->
        let deliver msg = on_deliver ~node:id ~time:(Engine.now engine) msg in
        {
          id;
          engine_member = Osend.create ~id ~deliver ();
          leaves = Label.Set.empty;
        })
      ~receive:(fun m msg ->
        note_received m msg;
        Osend.receive m.engine_member msg)
  in
  { sg; seqs = Array.make n 0; context_total = 0 }

let size t = Sgroup.size t.sg

let send t ~src ?name payload =
  let m = Sgroup.member t.sg src in
  let seq = t.seqs.(src) in
  t.seqs.(src) <- seq + 1;
  let label = Label.make ?name ~origin:src ~seq () in
  let context = Label.Set.elements m.leaves in
  t.context_total <- t.context_total + List.length context;
  let msg =
    Message.make ~label ~sender:src ~dep:(Dep.after_all context) payload
  in
  (* local copy: the sender's own message immediately becomes its sole
     leaf *)
  note_received m msg;
  Osend.receive m.engine_member msg;
  Sgroup.bcast t.sg ~src ~self:false msg;
  label

let member t i = (Sgroup.member t.sg i).engine_member

let leaves_at t i = Label.Set.elements (Sgroup.member t.sg i).leaves

let delivered_order t i = Osend.delivered_order (member t i)

let all_delivered_orders t =
  List.init (size t) (fun i -> delivered_order t i)

let buffered_ever t =
  Sgroup.fold (fun acc m -> acc + Osend.buffered_ever m.engine_member) 0 t.sg

let metrics t i = Osend.metrics (member t i)

let context_size_total t = t.context_total

(* Lattice declaration for the static stack verifier. *)
let provides = Causalb_stackbase.Guarantee.Causal

let requires = Causalb_stackbase.Guarantee.Unordered
