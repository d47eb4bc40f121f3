(** Psync-style conversations (paper reference [8], Peterson–Buchholz–
    Schlichting: "Preserving and Using Context Information in Interprocess
    Communication").

    §3.2 lists Psync alongside ISIS CBCAST as a substrate the paper's
    interface layer could sit on.  In Psync, a group maintains a
    {e conversation}: an explicit context graph of messages.  A sender
    does not state application dependencies — each message automatically
    depends on the {e leaves} of the sender's current view of the graph
    (everything it has received and nothing has yet followed).  Receivers
    reconstruct the same graph and deliver in context order.

    This sits exactly between the paper's two poles:
    {ul
    {- like [OSend], dependencies are explicit labels in the message (the
       wire format is a graph, not a vector);}
    {- like BSS vector clocks, the {e relation} captured is potential
       causality — everything the sender had seen — rather than the
       application's semantic order, so it inherits the same false
       dependencies (experiment T6 shows the inflation).}} *)

type 'a t

type 'a member

val create :
  ?codec:'a Message.t Causalb_stackbase.Sgroup.codec ->
  'a Message.t Causalb_stackbase.Sgroup.packet Causalb_net.Net.t ->
  ?on_deliver:(node:int -> time:float -> 'a Message.t -> unit) ->
  unit ->
  'a t
(** With [codec] ([Codec.message]) the remote copies of every send ride
    one shared frame and count their bytes in the members' {!metrics}
    ({!Causalb_stackbase.Sgroup}); the sender's own copy is always
    processed in memory. *)

val size : 'a t -> int

val send : 'a t -> src:int -> ?name:string -> 'a -> Causalb_graph.Label.t
(** Broadcast with automatic context: the message [Occurs_After] the
    leaves of the sender's current conversation view. *)

val member : 'a t -> int -> 'a Osend.t

val leaves_at : 'a t -> int -> Causalb_graph.Label.t list
(** The current context leaves at a node (what its next send would
    depend on). *)

val delivered_order : 'a t -> int -> Causalb_graph.Label.t list

val all_delivered_orders : 'a t -> Causalb_graph.Label.t list list

val buffered_ever : 'a t -> int
(** Forced waits across all members (T6 counter). *)

val metrics : 'a t -> int -> Causalb_stackbase.Metrics.t
(** Uniform layer metrics of one member's delivery engine. *)

val provides : Causalb_stackbase.Guarantee.t
(** [Causal] — conversation contexts reconstruct the causal relation. *)

val requires : Causalb_stackbase.Guarantee.t
(** [Unordered] — contexts carry all the ordering the layer needs. *)

val context_size_total : 'a t -> int
(** Total leaves named across all sends (wire cost of the context). *)
