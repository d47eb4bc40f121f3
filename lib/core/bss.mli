(** Vector-clock causal broadcast — the Birman–Schiper–Stephenson CBCAST
    baseline (paper reference [7]).

    Unlike [OSend], the application states no dependencies: the protocol
    {e infers} causality from the potential-causality order of the
    execution (everything a sender had delivered before sending is treated
    as a dependency).  Footnote 1 of the paper (and reference [9]) argues
    this "incidental ordering" over-constrains delivery; experiment T6
    quantifies the effect by running the same workload through both
    engines and counting forced waits that the semantic graph does not
    require.

    Delivery rule at member [p] for a message from [q] stamped [V]:
    [V.(q) = D.(q) + 1] and [V.(k) <= D.(k)] for all [k <> q], where [D]
    counts the messages [p] has delivered per origin. *)

type 'a envelope = {
  sender : int;
  stamp : Causalb_clock.Vector_clock.t;
  tag : string;      (** correlation tag for traces and experiments *)
  payload : 'a;
}

type 'a member

val member :
  id:int -> group_size:int -> ?deliver:('a envelope -> unit) -> unit ->
  'a member

val receive : 'a member -> 'a envelope -> unit

val delivered_tags : 'a member -> string list

val delivered_count : 'a member -> int

val pending_count : 'a member -> int

val buffered_ever : 'a member -> int
(** Messages that could not be delivered on arrival and had to wait — the
    forced-wait counter of T6. *)

val metrics : 'a member -> Causalb_stackbase.Metrics.t
(** The member's uniform layer metrics (see {!Causalb_stack.Layer}). *)

val provides : Causalb_stackbase.Guarantee.t
(** [Causal] — vector-clock potential causality. *)

val requires : Causalb_stackbase.Guarantee.t
(** [Unordered] — stamps carry all the ordering the layer needs. *)

val clock : 'a member -> Causalb_clock.Vector_clock.t
(** The member's current vector clock (delivered counts + own sends). *)

(** Group wrapper wiring members over the simulated network. *)
module Group : sig
  type 'a t

  val create :
    ?codec:'a envelope Causalb_stackbase.Sgroup.codec ->
    'a envelope Causalb_stackbase.Sgroup.packet Causalb_net.Net.t ->
    ?on_deliver:(node:int -> time:float -> 'a envelope -> unit) ->
    unit ->
    'a t
  (** With [codec] ([Codec.bss]) every broadcast is encoded once and
      its members decode one shared view and count the bytes in their
      {!metrics} ({!Causalb_stackbase.Sgroup}); without, the envelope
      itself rides the network. *)

  val size : 'a t -> int

  val bcast : 'a t -> src:int -> ?tag:string -> 'a -> unit
  (** Stamp with the sender's clock (own component ticked) and broadcast,
      including a local copy. *)

  val member : 'a t -> int -> 'a member

  val delivered_tags : 'a t -> int -> string list
end
