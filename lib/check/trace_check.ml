module Trace = Causalb_sim.Trace
module Label = Causalb_graph.Label
module Dep = Causalb_graph.Dep
module Depgraph = Causalb_graph.Depgraph

(* --- the per-node index ---------------------------------------------- *)

(* Row numbers of one node's records of one kind, in recording order. *)
type rows = { mutable at : int array; mutable len : int }

let no_rows () = { at = [||]; len = 0 }

let add_row r i =
  if r.len = Array.length r.at then begin
    let bigger = Array.make (max 8 (2 * r.len)) 0 in
    Array.blit r.at 0 bigger 0 r.len;
    r.at <- bigger
  end;
  r.at.(r.len) <- i;
  r.len <- r.len + 1

type member = { deliver : rows; release : rows; mark : rows }

(* Every checker starts from this index, built in one pass over the
   trace: each non-negative node id with its rows, by ascending id.  Node
   ids are dense endpoint ids, so the pass files rows through an array
   indexed by node. *)
let index trace =
  let members = ref (Array.make 8 None) in
  for i = 0 to Trace.length trace - 1 do
    let node = Trace.node_at trace i in
    if node >= 0 then begin
      if node >= Array.length !members then begin
        let size = max (node + 1) (2 * Array.length !members) in
        let bigger = Array.make size None in
        Array.blit !members 0 bigger 0 (Array.length !members);
        members := bigger
      end;
      let m =
        match !members.(node) with
        | Some m -> m
        | None ->
          let m =
            { deliver = no_rows (); release = no_rows (); mark = no_rows () }
          in
          !members.(node) <- Some m;
          m
      in
      match Trace.kind_at trace i with
      | Trace.Deliver -> add_row m.deliver i
      | Trace.Release -> add_row m.release i
      | Trace.Mark -> add_row m.mark i
      | Trace.Send | Trace.Receive | Trace.Drop -> ()
    end
  done;
  let ix = ref [] in
  for node = Array.length !members - 1 downto 0 do
    match !members.(node) with Some m -> ix := (node, m) :: !ix | None -> ()
  done;
  !ix

(* The application-visible sequence: [Release] when the stack or a
   total-order layer recorded releases at this node, else the causal
   [Deliver] sequence (standalone engines record only that). *)
let app_rows m = if m.release.len > 0 then m.release else m.deliver

let nodes trace = List.map fst (index trace)

let records_of trace ~node rows_of =
  match List.assoc_opt node (index trace) with
  | None -> []
  | Some m ->
    let r = rows_of m in
    List.init r.len (fun k -> Trace.get trace r.at.(k))

let deliver_records trace ~node = records_of trace ~node (fun m -> m.deliver)

let release_records trace ~node = records_of trace ~node app_rows

(* --- tags to labels -------------------------------------------------- *)

(* Trace tags are label renderings ([Label.to_string]); the graph is the
   authority for mapping them back.  Each graph label is rendered once and
   looked up among the trace's interned strings, so a tag resolves by
   array index.  Tags the graph does not know (bare transport records,
   protocol milestones) resolve to nothing and are skipped by every
   checker.  When two graph labels render alike the later one wins. *)
let resolver graph trace =
  let label_of = Array.make (Trace.string_count trace) None in
  List.iter
    (fun l ->
      match Trace.find_string trace (Label.to_string l) with
      | Some id -> label_of.(id) <- Some l
      | None -> ())
    (Depgraph.labels graph);
  label_of

(* The interned id of a label's rendering, or [-1] when no record of the
   trace carries it. *)
let id_of trace l =
  match Trace.find_string trace (Label.to_string l) with
  | Some id -> id
  | None -> -1

let chain_of graph a b =
  match Depgraph.shortest_path graph a b with
  | Some path -> path
  | None -> [ a; b ]

(* --- causal-delivery safety (paper §3–4) ----------------------------- *)

(* A message's R(M) predicate over interned ids, compiled once per
   distinct tag: [All] needs every id delivered (an empty array is
   [Null]), [Any] at least one. *)
type need = All of int array | Any of int array

let compile trace dep =
  let ids ls = Array.of_list (List.map (id_of trace) ls) in
  match dep with
  | Dep.Null -> All [||]
  | Dep.After l -> All [| id_of trace l |]
  | Dep.After_all ls -> All (ids ls)
  | Dep.After_any ls -> Any (ids ls)

let causal_among ~graph ~nodes:keep trace =
  let ix = index trace in
  let label_of = resolver graph trace in
  let needs = Array.make (Array.length label_of) None in
  (* Membership is tracked by trace tag, not by graph-resolved label: the
     audited graph is one member's extracted R(M), and under loss it can
     lack a vertex for a message other members legitimately delivered —
     resolving such a delivery to nothing would drop it from the set and
     flag its descendants as premature.  Tags are label renderings and
     unique per run, so tag equality is label equality wherever both
     exist.  [stamp.(id) = node] marks the tag delivered at [node]. *)
  let stamp = Array.make (Array.length label_of) (-1) in
  let diags = ref [] in
  let report node (rows : rows) k label dep =
    let delivered l =
      let id = id_of trace l in
      id >= 0 && stamp.(id) = node
    in
    let later_record a =
      let id = id_of trace a in
      let rec find j =
        if j >= rows.len then None
        else if Trace.tag_id trace rows.at.(j) = id then
          Some (Trace.get trace rows.at.(j))
        else find (j + 1)
      in
      if id < 0 then None else find (k + 1)
    in
    let missing =
      List.filter (fun a -> not (delivered a)) (Dep.ancestors dep)
    in
    let describe a =
      match later_record a with
      | Some r' ->
        Printf.sprintf "%s (delivered later, t=%.3f)" (Label.to_string a)
          r'.Trace.time
      | None -> Printf.sprintf "%s (never delivered here)" (Label.to_string a)
    in
    let which =
      match dep with
      | Dep.After_any _ -> "any of its R(M) alternatives"
      | _ -> "its R(M) ancestors"
    in
    diags :=
      Diag.make ~check:"causal" ~node
        ~records:
          (Trace.get trace rows.at.(k)
          :: List.filter_map later_record missing)
        ~chain:(chain_of graph (List.hd missing) label)
        (Printf.sprintf "%s delivered before %s: %s" (Label.to_string label)
           which
           (String.concat ", " (List.map describe missing)))
      :: !diags
  in
  List.iter
    (fun (node, m) ->
      if keep node then begin
        let rows = m.deliver in
        let has a = a >= 0 && stamp.(a) = node in
        for k = 0 to rows.len - 1 do
          let id = Trace.tag_id trace rows.at.(k) in
          (match label_of.(id) with
          | None -> ()
          | Some label ->
            let need =
              match needs.(id) with
              | Some n -> n
              | None ->
                let n = compile trace (Depgraph.dep_of graph label) in
                needs.(id) <- Some n;
                n
            in
            let ok =
              match need with
              | All ids -> Array.for_all has ids
              | Any ids -> Array.exists has ids
            in
            if not ok then
              report node rows k label (Depgraph.dep_of graph label));
          (* Every delivery joins the set, resolvable or not — a record
             the graph cannot name still satisfies dependencies that name
             it. *)
          stamp.(id) <- node
        done
      end)
    ix;
  List.rev !diags

let causal ~graph trace = causal_among ~graph ~nodes:(fun _ -> true) trace

(* --- FIFO per sender -------------------------------------------------- *)

let fifo ~graph trace =
  let ix = index trace in
  let label_of = resolver graph trace in
  (* Origins numbered densely, once per resolvable tag. *)
  let slots = Hashtbl.create 8 in
  let slot_of =
    Array.map
      (function
        | None -> -1
        | Some l -> (
          let o = Label.origin l in
          match Hashtbl.find_opt slots o with
          | Some s -> s
          | None ->
            let s = Hashtbl.length slots in
            Hashtbl.add slots o s;
            s))
      label_of
  in
  let nslots = Hashtbl.length slots in
  (* Per origin slot: the highest seq delivered so far at [owner], and
     the row that delivered it. *)
  let owner = Array.make nslots (-1) in
  let high = Array.make nslots 0 and high_row = Array.make nslots 0 in
  let diags = ref [] in
  List.iter
    (fun (node, m) ->
      let rows = m.deliver in
      for k = 0 to rows.len - 1 do
        let i = rows.at.(k) in
        let id = Trace.tag_id trace i in
        match label_of.(id) with
        | None -> ()
        | Some label ->
          let s = slot_of.(id) and seq = Label.seq label in
          if owner.(s) = node && high.(s) > seq then
            diags :=
              Diag.make ~check:"fifo" ~node
                ~records:[ Trace.get trace high_row.(s); Trace.get trace i ]
                (Printf.sprintf
                   "sender %d out of order: seq %d delivered after seq %d"
                   (Label.origin label) seq high.(s))
              :: !diags
          else begin
            owner.(s) <- node;
            high.(s) <- seq;
            high_row.(s) <- i
          end
      done)
    ix;
  List.rev !diags

(* --- total-order agreement (paper §5.2 / §3.2 windows) ---------------- *)

let tag_of trace i = Trace.string_of_id trace (Trace.tag_id trace i)

let strict_agreement trace per_node =
  match per_node with
  | [] | [ _ ] -> []
  | (n0, r0) :: rest ->
    (* [short] stopped after [i] releases; [long] went on with [row]. *)
    let ended ~node ~short i ~long row =
      Diag.make ~check:"total" ~node ~records:[ Trace.get trace row ]
        (Printf.sprintf
           "node %d released only %d messages; node %d continued with %s"
           short i long (tag_of trace row))
    in
    List.concat_map
      (fun (n, r) ->
        let rec cmp i =
          if i < r0.len && i < r.len then
            let x = r0.at.(i) and y = r.at.(i) in
            if Trace.tag_id trace x = Trace.tag_id trace y then cmp (i + 1)
            else
              [
                Diag.make ~check:"total" ~node:n
                  ~records:[ Trace.get trace x; Trace.get trace y ]
                  (Printf.sprintf
                     "release sequences diverge at position %d: node %d \
                      released %s where node %d released %s"
                     i n (tag_of trace y) n0 (tag_of trace x));
              ]
          else if i < r0.len then
            [ ended ~node:n ~short:n i ~long:n0 r0.at.(i) ]
          else if i < r.len then
            [ ended ~node:n ~short:n0 i ~long:n r.at.(i) ]
          else []
        in
        cmp 0)
      rest

(* Split a node's release sequence at the synchronization points: the
   result is a list of (interior set, interior rows reversed, closing
   sync row) windows plus a trailing open window.  Members must agree on
   the sync order and on each interior *set* — order inside a window is
   free (commutative [Cid] reordering between [Ncid] anchors, §6.1). *)
let windows_of trace label_of ~sync (rows : rows) =
  let acc = ref [] and set = ref Label.Set.empty and recs = ref [] in
  for k = 0 to rows.len - 1 do
    let i = rows.at.(k) in
    match label_of.(Trace.tag_id trace i) with
    | None -> ()
    | Some label ->
      if Label.Set.mem label sync then begin
        acc := (!set, !recs, i) :: !acc;
        set := Label.Set.empty;
        recs := []
      end
      else begin
        set := Label.Set.add label !set;
        recs := i :: !recs
      end
  done;
  (List.rev !acc, !set)

let set_to_string s =
  String.concat ", " (List.map Label.to_string (Label.Set.elements s))

let window_agreement trace label_of ~sync per_node =
  match per_node with
  | [] | [ _ ] -> []
  | (n0, r0) :: rest ->
    let w0, tail0 = windows_of trace label_of ~sync r0 in
    let unclosed ~node ~closer k row ~other =
      Diag.make ~check:"total" ~node ~records:[ Trace.get trace row ]
        (Printf.sprintf
           "node %d closed window %d with %s; node %d never closed it"
           closer k (tag_of trace row) other)
    in
    List.concat_map
      (fun (n, r) ->
        let w, tail = windows_of trace label_of ~sync r in
        let rec cmp k a b =
          match (a, b) with
          | [], [] ->
            if Label.Set.equal tail0 tail then []
            else
              [
                Diag.make ~check:"total" ~node:n
                  (Printf.sprintf
                     "open windows differ after the last sync: node %d has \
                      {%s}, node %d has {%s}"
                     n0 (set_to_string tail0) n (set_to_string tail));
              ]
          | (s0, recs0, sr0) :: xs, (s, recs, sr) :: ys ->
            if Trace.tag_id trace sr0 <> Trace.tag_id trace sr then
              [
                Diag.make ~check:"total" ~node:n
                  ~records:[ Trace.get trace sr0; Trace.get trace sr ]
                  (Printf.sprintf
                     "sync order diverges at window %d: node %d closed with \
                      %s, node %d with %s"
                     k n0 (tag_of trace sr0) n (tag_of trace sr));
              ]
            else if not (Label.Set.equal s0 s) then begin
              let only0 = Label.Set.diff s0 s and only = Label.Set.diff s s0 in
              let ids =
                List.map (id_of trace)
                  (Label.Set.elements (Label.Set.union only0 only))
              in
              let offending =
                List.filter_map
                  (fun i ->
                    if List.mem (Trace.tag_id trace i) ids then
                      Some (Trace.get trace i)
                    else None)
                  (List.rev_append recs0 (List.rev recs))
              in
              [
                Diag.make ~check:"total" ~node:n
                  ~records:(offending @ [ Trace.get trace sr ])
                  (Printf.sprintf
                     "window %d (closed by %s) differs: only node %d has \
                      {%s}; only node %d has {%s}"
                     k (tag_of trace sr) n0 (set_to_string only0) n
                     (set_to_string only));
              ]
            end
            else cmp (k + 1) xs ys
          | (_, _, sr) :: _, [] -> [ unclosed ~node:n ~closer:n0 k sr ~other:n ]
          | [], (_, _, sr) :: _ -> [ unclosed ~node:n ~closer:n k sr ~other:n0 ]
        in
        cmp 0 w0 w)
      rest

let total_order ?(strict = false) ~graph ?sync trace =
  let ix = index trace in
  let per_node =
    List.filter_map
      (fun (n, m) ->
        let rows = app_rows m in
        if rows.len > 0 then Some (n, rows) else None)
      ix
  in
  if strict then strict_agreement trace per_node
  else
    let sync =
      match sync with
      | Some s -> s
      | None -> Label.Set.of_list (Depgraph.sync_points graph)
    in
    window_agreement trace (resolver graph trace) ~sync per_node

(* --- stable-point agreement (paper §4.1, §6.1) ------------------------ *)

let is_stable_tag tag = String.length tag >= 7 && String.sub tag 0 7 = "stable:"

let stable_points trace =
  let ix = index trace in
  let per_node =
    List.filter_map
      (fun (n, m) ->
        let marks = m.mark in
        let stable = ref [] in
        for k = marks.len - 1 downto 0 do
          let i = marks.at.(k) in
          if is_stable_tag (tag_of trace i) then stable := i :: !stable
        done;
        if !stable = [] then None else Some (n, !stable))
      ix
  in
  match per_node with
  | [] | [ _ ] -> []
  | (n0, m0) :: rest ->
    List.concat_map
      (fun (n, marks) ->
        List.filter_map
          (fun i0 ->
            let tag = Trace.tag_id trace i0 in
            match List.find_opt (fun i -> Trace.tag_id trace i = tag) marks with
            | Some i ->
              let r0 = Trace.get trace i0 and r = Trace.get trace i in
              if String.equal r.Trace.info r0.Trace.info then None
              else
                Some
                  (Diag.make ~check:"stable" ~node:n ~records:[ r0; r ]
                     (Printf.sprintf
                        "replica digests disagree at %s: node %d recorded %s, \
                         node %d recorded %s"
                        r0.Trace.tag n0 r0.Trace.info n r.Trace.info))
            | None -> None)
          m0)
      rest
