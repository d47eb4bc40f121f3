(** A broadcast group of [OSend] members wired over the simulated network.

    This is the communication construct of §3: entities organised as a
    group, every data-access message broadcast to all members together
    with its causal relation.  The group allocates labels (per-origin
    sequence numbers), broadcasts envelopes, and routes arrivals into each
    member's causal delivery engine.

    The delivery callback receives the member id, the envelope and the
    virtual delivery time, which is what the experiment harness measures. *)

type 'a t

val create :
  ?codec:'a Message.t Causalb_stackbase.Sgroup.codec ->
  'a Message.t Causalb_stackbase.Sgroup.packet Causalb_net.Net.t ->
  ?trace:Causalb_sim.Trace.t ->
  ?on_send:(time:float -> Causalb_graph.Label.t -> unit) ->
  ?on_deliver:(node:int -> time:float -> 'a Message.t -> unit) ->
  unit ->
  'a t
(** Installs a handler on every node of the network.  The network must not
    have other handlers on those nodes.  [on_send] fires for every
    broadcast at the moment it is handed to the transport, whoever
    initiated it — the hook latency measurement attaches to.  With
    [codec] ([Codec.message]) every broadcast is encoded once and its
    members decode one shared view and count the bytes in their
    [Osend.metrics] ({!Causalb_stackbase.Sgroup}). *)

val net : 'a t -> 'a Message.t Causalb_stackbase.Sgroup.packet Causalb_net.Net.t

val size : 'a t -> int

val osend :
  'a t ->
  src:int ->
  ?name:string ->
  dep:Causalb_graph.Dep.t ->
  'a ->
  Causalb_graph.Label.t
(** The [OSend] primitive: allocate the next label for [src], broadcast
    the envelope (including to [src] itself) and return the label so the
    caller can name it in later predicates. *)

val next_label : 'a t -> src:int -> ?name:string -> unit -> Causalb_graph.Label.t
(** Allocate a label without sending — used by layers (e.g. the sequencer)
    that need the label before constructing the payload. *)

val send_labelled :
  'a t -> src:int -> label:Causalb_graph.Label.t ->
  dep:Causalb_graph.Dep.t -> 'a -> unit
(** Broadcast under a pre-allocated label. *)

val member : 'a t -> int -> 'a Osend.t

val delivered_order : 'a t -> int -> Causalb_graph.Label.t list

val all_delivered_orders : 'a t -> Causalb_graph.Label.t list list

val sent_count : 'a t -> int
(** Number of [osend]/[send_labelled] calls so far. *)

val ancestors_named : 'a t -> int
(** Total ancestors named across all predicates sent — the wire size of
    the ordering specification (experiments report it per op). *)
