(** Generic group wiring over the simulated network.

    Every ordering engine in this repository used to repeat the same
    dance: make one member per network node, close its delivery callback
    over the node id and the virtual clock, and install a [Net] handler
    routing arrivals into that member.  [Sgroup] is that dance, written
    once, polymorphic in both the per-member state ['m] and the value ['v]
    the engine puts on the wire.  The per-protocol [Group] wrappers in
    [Causalb_core.{Fifo,Bss,Group,Psync,Pcbcast}] and the pipeline
    builder in [Causalb_stack.Stack] all delegate here.

    It is also the one place framing happens.  Created with a {!codec},
    a group encodes each send once into an immutable frame, fans that one
    frame out with its real [~size] (so [Net.bytes_sent] counts wire
    bytes), decodes one {e shared} view per frame (the first recipient
    decodes, the rest reuse it) and charges every received copy to the
    member's [Metrics.wire_bytes] with the control/payload split.
    Without a codec the value itself rides the network, as it always
    did.  Either way the copy loop is [Net]'s own, so a framed group
    makes exactly the RNG draws the plain group makes and delivers the
    same orders for the same seed. *)

module Net := Causalb_net.Net
module Wire := Causalb_util.Wire

(** {1 Frames} *)

type 'v codec = {
  header : Wire.writer -> 'v -> unit;
      (** the control span: everything but the application payload *)
  payload : Wire.writer -> 'v -> unit;
      (** the application payload, written after [header] *)
  decode : Wire.reader -> 'v;  (** reads back what [header; payload] wrote *)
}
(** How one engine's wire value is serialized.  The per-envelope codecs
    live in [Causalb_core.Codec]. *)

type 'v framed = {
  frame : Wire.frame;
  payload_bytes : int;  (** encoded span of the payload within [frame] *)
  mutable view : 'v option;  (** the decoded value, once someone decoded *)
}
(** One encoded value plus its memoized decoded view: a fan-out of [n]
    copies shares the frame and decodes once, not [n] times. *)

val encode : Wire.pool -> 'v codec -> 'v -> 'v framed
(** Encode [header] then [payload] into one frame, measuring the payload
    span with a writer mark — no second encode. *)

val view : 'v framed -> dec:(Wire.reader -> 'v) -> 'v
(** The decoded value, decoding (and memoizing) on first use.
    @raise Causalb_util.Wire.Corrupt on a truncated or trailing frame. *)

type 'v packet
(** What a group's network carries: the value itself (no codec) or its
    {!framed} encoding.  One packet is built per send and shared by
    every copy of it. *)

(** {1 Groups} *)

type ('m, 'v) t

val create :
  ?codec:'v codec ->
  'v packet Net.t ->
  metrics:('m -> Metrics.t) ->
  member:(('m, 'v) t -> int -> 'm) ->
  receive:('m -> 'v -> unit) ->
  ('m, 'v) t
(** [create ?codec net ~metrics ~member ~receive] builds one member per
    node with [member t node] and installs a handler that hands each
    arriving value to [receive].  [metrics] names the member's metrics
    that framed copies are charged to.  The network must not have other
    handlers on those nodes. *)

val create_routed :
  ?codec:'v codec ->
  'v packet Net.t ->
  metrics:('m -> Metrics.t) ->
  member:(('m, 'v) t -> int -> 'm) ->
  receive:('m -> src:int -> emit:(dst:int -> unit) -> 'v -> unit) ->
  ('m, 'v) t
(** Like {!create} but the handler keeps the sender id, and [emit ~dst]
    forwards the exact packet that arrived to another node (no
    re-encode; downstream recipients share its decoded view).
    Link-oriented engines (PC-broadcast) need both: which link a copy
    arrived on decides flooding fan-out and π_lock buffering. *)

val bcast : ('m, 'v) t -> src:int -> ?self:bool -> 'v -> unit
(** One packet, one copy to every node ({!Net.broadcast}; [self]
    defaults to [true]). *)

val fanout : ('m, 'v) t -> src:int -> 'v -> dst:int -> unit
(** [fanout t ~src v] builds one packet and returns the function that
    sends a copy of it to [dst] — for engines that pick their own
    recipients. *)

val join : ('m, 'v) t -> int
(** Register a fresh network endpoint ({!Net.add_node}), build its
    member with the factory [create] captured, install its handler, and
    return the new node id.  {!size} grows by one. *)

val leave : ('m, 'v) t -> int -> unit
(** Retire a member's endpoint ({!Net.remove_node}).  The member value
    stays in {!members} with its state frozen — departed ids are never
    reused, so accessors keep working for post-mortem inspection. *)

val net : ('m, 'v) t -> 'v packet Net.t

val engine : ('m, 'v) t -> Causalb_sim.Engine.t

val size : ('m, 'v) t -> int

val member : ('m, 'v) t -> int -> 'm

val members : ('m, 'v) t -> 'm array
(** The underlying array — do not mutate. *)

val fold : ('acc -> 'm -> 'acc) -> 'acc -> ('m, 'v) t -> 'acc

val mapi : (int -> 'm -> 'b) -> ('m, 'v) t -> 'b list
