(** Binary codecs for the protocol's wire values.

    {!Causalb_util.Wire} provides the primitives (pooled writers,
    immutable frames, bounds-checked readers); this module provides the
    codecs for the values that actually cross the simulated wire —
    vector clocks, labels, dependency predicates, [Message.t],
    [Bss.envelope] and PC-broadcast's wire values — and, for each
    envelope type, the {!Causalb_stackbase.Sgroup.codec} a group wrapper
    takes to put its traffic on the wire as frames ({!bss}, {!message},
    {!pc}).

    Every codec is a [put]/[get] pair with [get (put v) = v] (the qcheck
    round-trip property in [test/test_wire.ml]); [get] on a truncated or
    corrupted frame raises [Wire.Corrupt] or the violated constructor's
    [Invalid_argument], never returns garbage. *)

module Wire := Causalb_util.Wire

type 'a enc = Wire.writer -> 'a -> unit

type 'a dec = Wire.reader -> 'a

(** {1 Payload codecs} *)

val put_str : string enc

val get_str : string dec

val put_int : int enc

val get_int : int dec

val put_unit : unit enc

val get_unit : unit dec

(** {1 Protocol values} *)

val put_clock : Causalb_clock.Vector_clock.t enc

val get_clock : Causalb_clock.Vector_clock.t dec

val put_label : Causalb_graph.Label.t enc
(** Origin, sequence number, and the optional display name — the display
    round-trips exactly, so printed delivered orders are byte-identical
    across a codec hop. *)

val get_label : Causalb_graph.Label.t dec

val put_dep : Causalb_graph.Dep.t enc

val get_dep : Causalb_graph.Dep.t dec
(** Rebuilds through [Dep.after_all]/[after_any], so the decoded
    predicate is canonical (deduped, sorted) like every locally built
    one. *)

val put_message : 'a enc -> 'a Message.t enc

val get_message : 'a dec -> 'a Message.t dec

val put_message_header : 'a Message.t enc
(** Label, sender and dependency predicate — the control span of an
    OSend/Psync frame ([put_message] is this followed by the payload). *)

val put_envelope : 'a enc -> 'a Bss.envelope enc

val get_envelope : 'a dec -> 'a Bss.envelope dec

val put_envelope_header : 'a Bss.envelope enc
(** Everything but the payload (sender, stamp, tag) — the control span
    of a BSS frame, O(n) because of the stamp.  [put_envelope] is this
    followed by the payload. *)

val put_pc : 'a enc -> 'a Pcbcast.wire enc
(** PC-broadcast wire codec: one discriminator byte, then the
    constant-size header (origin and seq varints, tag) and the case's
    body.  Control frames ([Lock], barriers, joins) are all control
    bytes. *)

val get_pc : 'a dec -> 'a Pcbcast.wire dec

val put_pc_header : 'a Pcbcast.envelope enc
(** The constant-size control span of an envelope (origin, seq, tag) —
    what the scaling sweep measures against [put_envelope_header]. *)

(** {1 Whole frames} *)

val encode : Wire.pool -> 'a enc -> 'a -> Wire.frame
(** One pooled writer, one sealed frame. *)

val decode : 'a dec -> Wire.frame -> 'a
(** Decode a whole frame; raises [Wire.Corrupt] on trailing bytes. *)

(** {1 Group codecs}

    What [Bss.Group.create], [Group.create], [Psync.create] and
    [Pcbcast.Group.create] take as [?codec]: the envelope's control span
    as [header], the application payload as [payload] — so
    {!Causalb_stackbase.Sgroup.encode} measures the split in the one
    encode pass — and the matching decoder. *)

module Sgroup := Causalb_stackbase.Sgroup

val bss : 'a enc -> 'a dec -> 'a Bss.envelope Sgroup.codec
(** [put_envelope]/[get_envelope]; the control span is O(n) because of
    the stamp. *)

val message : 'a enc -> 'a dec -> 'a Message.t Sgroup.codec
(** [put_message]/[get_message], for OSend and Psync traffic. *)

val pc : 'a enc -> 'a dec -> 'a Pcbcast.wire Sgroup.codec
(** [put_pc]/[get_pc]; only an App envelope's payload counts as payload
    bytes. *)
