module Net = Causalb_net.Net
module Engine = Causalb_sim.Engine
module Trace = Causalb_sim.Trace
module Label = Causalb_graph.Label
module Sgroup = Causalb_stackbase.Sgroup

type 'a t = {
  sg : ('a Osend.t, 'a Message.t) Sgroup.t;
  seqs : int array; (* next per-origin sequence number *)
  trace : Trace.t option;
  on_send : time:float -> Label.t -> unit;
  mutable sent : int;
  mutable ancestors : int;
}

let create ?codec net ?trace ?(on_send = fun ~time:_ _ -> ())
    ?(on_deliver = fun ~node:_ ~time:_ _ -> ()) () =
  let n = Net.nodes net in
  let engine = Net.engine net in
  let sg =
    Sgroup.create ?codec net ~metrics:Osend.metrics
      ~member:(fun _ node ->
        let deliver msg =
          let time = Engine.now engine in
          (match trace with
          | Some tr ->
            Trace.record tr ~time ~node ~kind:Trace.Deliver
              ~tag:(Label.to_string (Message.label msg))
              ()
          | None -> ());
          on_deliver ~node ~time msg
        in
        Osend.create ~id:node ~deliver ())
      ~receive:Osend.receive
  in
  { sg; seqs = Array.make n 0; trace; on_send; sent = 0; ancestors = 0 }

let net t = Sgroup.net t.sg

let size t = Sgroup.size t.sg

let next_label t ~src ?name () =
  let seq = t.seqs.(src) in
  t.seqs.(src) <- seq + 1;
  Label.make ?name ~origin:src ~seq ()

let send_labelled t ~src ~label ~dep payload =
  let msg = Message.make ~label ~sender:src ~dep payload in
  t.sent <- t.sent + 1;
  t.ancestors <- t.ancestors + List.length (Causalb_graph.Dep.ancestors dep);
  let time = Engine.now (Sgroup.engine t.sg) in
  (match t.trace with
  | Some tr ->
    Trace.record tr ~time ~node:src ~kind:Trace.Send
      ~tag:(Label.to_string label) ()
  | None -> ());
  t.on_send ~time label;
  Sgroup.bcast t.sg ~src msg

let osend t ~src ?name ~dep payload =
  let label = next_label t ~src ?name () in
  send_labelled t ~src ~label ~dep payload;
  label

let member t i = Sgroup.member t.sg i

let delivered_order t i = Osend.delivered_order (member t i)

let all_delivered_orders t =
  Array.to_list (Array.map Osend.delivered_order (Sgroup.members t.sg))

let sent_count t = t.sent

let ancestors_named t = t.ancestors
