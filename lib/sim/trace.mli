(** Execution traces.

    Engines and protocols append timestamped records; verifiers and the
    experiment harness read them back.  A trace is append-only and is the
    measurement source of the audited runs, not an afterthought.

    Records are stored column-wise, in fixed-size chunks: times in
    unboxed float arrays, and two int columns holding node and kind, the
    interned tag and info ids, or a transport record's cause and peer.
    Appending a record allocates nothing on the minor heap and never
    copies earlier rows.  Transport records ({!record_transport}) keep
    the peer id and the cause instead of a formatted string; their
    [info] text is rendered only when a record is materialised ({!get},
    {!iter}, {!fold}, {!pp}), byte-identical to the text a formatted
    record would carry.

    Measured on the benchmark ledger's [pc_audited] workload (a 32-member
    full-mesh PC-broadcast group, 400 operations, 61 records per
    delivery, every record written): the simulate phase went from 4 530
    to 1 761 minor words per delivery, the same as with no transport
    records at all, and the peak heap from 122 MB to 28 MB, against
    records that carried formatted strings.

    The offline checkers of [Causalb_check] read the columns directly
    ({!node_at}, {!kind_at}, {!tag_id}) and materialise records only for
    the diagnostics they report. *)

type kind =
  | Send        (** message handed to the transport *)
  | Receive     (** message arrived at a node, pre-ordering *)
  | Deliver     (** message released by the causal layer *)
  | Release     (** a total-order layer (or the stack's application
                    hand-off) released a buffered message *)
  | Drop        (** fault injection removed the message *)
  | Mark        (** free-form protocol milestone (stable point, lock grant …) *)

type record = {
  time : float;
  node : int;      (** acting node; [-1] for global events *)
  kind : kind;
  tag : string;    (** message label or milestone name *)
  info : string;   (** free-form detail *)
}

type transport =
  | Sent_to         (** [Send], info ["dst=<peer>"] *)
  | Sent_all        (** [Send], info ["bcast"]; the peer is ignored *)
  | Received_from   (** [Receive], info ["from=<peer>"] *)
  | Lost_partition  (** [Drop], info ["partition dst=<peer>"] *)
  | Lost_loss       (** [Drop], info ["loss dst=<peer>"] *)
  | Lost_departed_dst  (** [Drop], info ["departed dst=<peer>"] *)
  | Lost_departed_src  (** [Drop], info ["departed from=<peer>"] *)
  | Node_added      (** [Mark] ["join"], info ["net:add_node"] *)
  | Node_removed    (** [Mark] ["leave"], info ["net:remove_node"] *)
(** What the network did with one copy (or one endpoint), recorded as a
    cause and a peer id.  Every transport record has the empty tag except
    the two membership marks. *)

type t

val create : ?capacity:int -> unit -> t

val record : t -> time:float -> node:int -> kind:kind -> tag:string ->
  ?info:string -> unit -> unit

val record_transport :
  t -> time:float -> node:int -> transport -> peer:int -> unit
(** Append a transport record: its kind, tag and [info] text are those
    listed at {!transport}. *)

val length : t -> int

val get : t -> int -> record
(** The [i]-th record in recording order.
    @raise Invalid_argument when out of range. *)

val iter : t -> (record -> unit) -> unit
(** Apply to every record in recording order, without materialising the
    record list. *)

val fold : t -> init:'acc -> f:('acc -> record -> 'acc) -> 'acc
(** Fold over records in recording order, without materialising the
    record list. *)

val keep_nodes : t -> (int -> bool) -> t
(** A copy holding the records whose node satisfies the predicate, in
    recording order.  Copies columns; renders no text. *)

(** {1 Column access}

    Per-row reads that materialise nothing.  Tags and free-form [info]
    texts share one table of interned strings: two rows have equal tags
    exactly when their {!tag_id}s are equal.  Each raises
    [Invalid_argument] on a row or id out of range. *)

val node_at : t -> int -> int

val kind_at : t -> int -> kind

val tag_id : t -> int -> int

val string_count : t -> int
(** Interned ids are [0 .. string_count t - 1]. *)

val string_of_id : t -> int -> string

val find_string : t -> string -> int option
(** The id of a string interned in this trace, if any. *)

val kind_to_string : kind -> string

val pp_record : Format.formatter -> record -> unit

val pp : Format.formatter -> t -> unit
