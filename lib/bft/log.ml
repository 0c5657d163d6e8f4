(* The replica's message log: one slot per sequence number with its
   pre-prepare, vote tables and phase timestamps, plus the checkpoint
   certificates, and the rules that count votes over them and discard them
   at the stable checkpoint.  Nothing here sends or calls back into the
   agreement protocol; [Replica] drives it. *)

module Digest = Base_crypto.Digest_t
module M = Message

(* A vote table: slot [r] holds replica [r]'s digest, [None] until it
   votes.  Only active replicas ([0 .. n-1]) vote, so the handlers bound
   every sender before indexing. *)
type votes = Digest.t option array

(* A primary's PRE-PREPARE envelope, with the pre-prepare record it was
   sealed from and the keychain generation it was sealed under. *)
type sealed = { s_pp : M.pre_prepare; s_generation : int; s_env : M.envelope }

(* Per-sequence-number log slot.  Certificates are counted over matching
   digests in the prepare/commit vote tables.  The [t_*] fields are local
   phase timestamps (-1 = milestone not reached). *)
type entry = {
  mutable pre_prepare : M.pre_prepare option;
  mutable sealed_pp : sealed option;  (* primary: see [Replica.send_pre_prepare] *)
  prepares : votes;
  commits : votes;
  mutable sent_commit : bool;
  mutable committed : bool;
  mutable prepared_proof : M.prepared_proof option;
  mutable t_pp : int64;
  mutable t_prepared : int64;
  mutable t_committed : int64;
}

type t = {
  n : int;  (* active replicas: the width of every vote table *)
  entries : (Types.seqno, entry) Hashtbl.t;
  cp_msgs : (Types.seqno, votes) Hashtbl.t;  (* CHECKPOINT votes per seqno *)
  far_cps : Types.seqno array;  (* per replica: its vote above the window, -1 for none *)
  own_cps : (Types.seqno, Digest.t) Hashtbl.t;  (* our own checkpoint digests *)
}

let create n =
  { n; entries = Hashtbl.create 64; cp_msgs = Hashtbl.create 16; far_cps = Array.make n (-1);
    own_cps = Hashtbl.create 16 }

(* Deterministic traversal of an int-keyed table: snapshot the bindings and
   sort by key.  Table scans go through this, so retransmission order and
   wire-visible new-view summaries are independent of hash-table iteration
   order.  It allocates the whole table, so the per-message paths avoid it:
   vote tables are arrays and the pending count is kept live. *)
let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

(* The ordering digest binds the whole request batch *and* the agreed
   non-deterministic values, so an equivocating primary cannot get two
   nondet choices (or two batch compositions) past the prepare phase.
   One SHA-256 pass over the injective batch encoding — this runs at the
   primary per proposal and at every backup per PRE-PREPARE acceptance. *)
let ordering_digest requests nondet = Digest.of_string (M.encode_batch requests ~nondet)

let entry log seq =
  match Hashtbl.find_opt log.entries seq with
  | Some e -> e
  | None ->
    let e =
      {
        pre_prepare = None;
        sealed_pp = None;
        prepares = Array.make log.n None;
        commits = Array.make log.n None;
        sent_commit = false;
        committed = false;
        prepared_proof = None;
        t_pp = -1L;
        t_prepared = -1L;
        t_committed = -1L;
      }
    in
    Hashtbl.replace log.entries seq e;
    e

let clear_votes (votes : votes) = Array.fill votes 0 (Array.length votes) None

(* Void the agreement state a slot holds from an earlier view and install
   [pre_prepare] (None: the slot waits for one).  [keep_commits] keeps the
   COMMIT votes.  The prepared and committed timestamps need no reset: each
   is written again before it is next read. *)
let reset_slot e pre_prepare ~t_pp ~keep_commits =
  e.pre_prepare <- pre_prepare;
  e.t_pp <- t_pp;
  clear_votes e.prepares;
  if not keep_commits then clear_votes e.commits;
  e.sent_commit <- false;
  e.prepared_proof <- None

(* Votes for [digest], leaving out replica [except] (-1 leaves out none). *)
let count_matching ~except (votes : votes) digest =
  let count = ref 0 in
  for r = 0 to Array.length votes - 1 do
    match votes.(r) with
    | Some d when r <> except && Digest.equal d digest -> incr count
    | Some _ | None -> ()
  done;
  !count

(* The prepared certificates of the slots above [above], in seqno order. *)
let prepared_proofs log ~above =
  Hashtbl.fold
    (fun seq e acc ->
      match e.prepared_proof with Some p when seq > above -> p :: acc | Some _ | None -> acc)
    log.entries []
  |> List.sort (fun a b -> Int.compare a.M.pp_seq b.M.pp_seq)

(* The CHECKPOINT vote table for [seq], created empty on first use. *)
let cp_votes log seq =
  match Hashtbl.find_opt log.cp_msgs seq with
  | Some votes -> votes
  | None ->
    let votes = Array.make log.n None in
    Hashtbl.replace log.cp_msgs seq votes;
    votes

(* Replica [r]'s CHECKPOINT vote for [seq].  Above the log window's top
   only each replica's highest vote is kept (PBFT's rule), so however many
   far-off seqnos a Byzantine replica names, the tables number at most the
   window's seqnos plus one per replica. *)
let record_checkpoint log ~top ~seq r digest =
  let prev = log.far_cps.(r) in
  if seq <= top then (cp_votes log seq).(r) <- Some digest
  else if seq > prev then begin
    (match Hashtbl.find_opt log.cp_msgs prev with
    | Some votes when prev > top ->
      votes.(r) <- None;
      if Array.for_all Option.is_none votes then Hashtbl.remove log.cp_msgs prev
    | Some _ | None -> ());
    log.far_cps.(r) <- seq;
    (cp_votes log seq).(r) <- Some digest
  end

(* The first digest, in replica-id order, voted by at least [weak]
   replicas. *)
let rec certified (votes : votes) ~weak r =
  if r >= Array.length votes then None
  else
    match votes.(r) with
    | Some d as v when count_matching ~except:(-1) votes d >= weak -> v
    | Some _ | None -> certified votes ~weak (r + 1)

(* The highest checkpoint at or above [h] certified by [weak] replicas. *)
let fetch_target log ~h ~weak =
  List.fold_left
    (fun best (seq, votes) ->
      if seq < h then best
      else begin
        match (certified votes ~weak 0, best) with
        | Some d, None -> Some (seq, d)
        | Some d, Some (bs, _) when seq > bs -> Some (seq, d)
        | _ -> best
      end)
    None (sorted_bindings log.cp_msgs)

(* Garbage collection at the stable checkpoint [seq]: slots up to it and
   checkpoint tables below it. *)
let discard_below log seq =
  let keep_from first tbl = Hashtbl.filter_map_inplace (fun s v -> if s < first then None else Some v) tbl in
  keep_from (seq + 1) log.entries;
  keep_from seq log.cp_msgs;
  keep_from seq log.own_cps
