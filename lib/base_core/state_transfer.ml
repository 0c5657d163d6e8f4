module Digest = Base_crypto.Digest_t

type msg =
  | Fetch_head of { seq : int }
  | Head_reply of {
      seq : int;
      app_root : Digest.t;
      client_rows : (int * int64 * string) list;
    }
  | Fetch_meta of { seq : int; level : int; index : int }
  | Meta_reply of { seq : int; level : int; index : int; children : Digest.t array }
  | Fetch_obj of { seq : int; index : int; off : int; max_bytes : int }
  | Obj_reply of { seq : int; index : int; off : int; total : int; data : string }

(* Exact size of the XDR encoding produced by [rows_digest]: a u32 list
   header, then per row u32 client + i64 timestamp + length-prefixed opaque
   result padded to a 4-byte boundary.  Keeping this in lockstep with the
   encoder is what makes the simulator's bandwidth accounting honest. *)
let xdr_opaque_size s =
  let n = String.length s in
  4 + n + ((4 - (n mod 4)) mod 4)

let rows_size rows =
  List.fold_left (fun acc (_, _, res) -> acc + 4 + 8 + xdr_opaque_size res) 4 rows

let size = function
  | Fetch_head _ -> 16
  | Head_reply { client_rows; _ } -> 48 + rows_size client_rows
  | Fetch_meta _ -> 20
  | Meta_reply { children; _ } -> 24 + (32 * Array.length children)
  | Fetch_obj _ -> 24
  | Obj_reply { data; _ } -> 28 + String.length data

let kind_label = function
  | Fetch_head _ -> "FETCH-HEAD"
  | Head_reply _ -> "HEAD-REPLY"
  | Fetch_meta _ -> "FETCH-META"
  | Meta_reply _ -> "META-REPLY"
  | Fetch_obj _ -> "FETCH-OBJ"
  | Obj_reply _ -> "OBJ-REPLY"

let label = function
  | Fetch_head { seq } -> Printf.sprintf "FETCH-HEAD(n=%d)" seq
  | Head_reply { seq; _ } -> Printf.sprintf "HEAD-REPLY(n=%d)" seq
  | Fetch_meta { seq; level; index } -> Printf.sprintf "FETCH-META(n=%d,%d.%d)" seq level index
  | Meta_reply { seq; level; index; _ } ->
    Printf.sprintf "META-REPLY(n=%d,%d.%d)" seq level index
  | Fetch_obj { seq; index; off; _ } ->
    Printf.sprintf "FETCH-OBJ(n=%d,i=%d,o=%d)" seq index off
  | Obj_reply { seq; index; off; data; _ } ->
    Printf.sprintf "OBJ-REPLY(n=%d,i=%d,o=%d,%dB)" seq index off (String.length data)

let rows_digest rows =
  let e = Base_codec.Xdr.encoder () in
  Base_codec.Xdr.list e
    (fun e (c, ts, res) ->
      Base_codec.Xdr.u32 e c;
      Base_codec.Xdr.i64 e ts;
      Base_codec.Xdr.opaque e res)
    rows;
  Digest.of_string (Base_codec.Xdr.contents e)

let combined_digest ~app_root ~client_rows =
  Digest.combine [ app_root; rows_digest client_rows ]

(* --- server ---------------------------------------------------------------- *)

let serve repo msg =
  match msg with
  | Fetch_head { seq } -> (
    match Objrepo.find_checkpoint repo ~seq with
    | Some cp ->
      Some
        (Head_reply
           { seq; app_root = Partition_tree.root cp.Objrepo.tree; client_rows = cp.client_rows })
    | None -> None)
  | Fetch_meta { seq; level; index } -> (
    match Objrepo.find_checkpoint repo ~seq with
    | Some cp when level >= 0 && index >= 0
                   && level < Partition_tree.levels cp.Objrepo.tree - 1
                   && index < Partition_tree.width cp.Objrepo.tree ~level ->
      let children = Partition_tree.children cp.Objrepo.tree ~level ~index in
      Some (Meta_reply { seq; level; index; children })
    | Some _ | None -> None)
  | Fetch_obj { seq; index; off; max_bytes } ->
    if index < 0 || index >= Objrepo.n_objects repo then None
    else (
      match Objrepo.object_at repo ~seq index with
      | Some data ->
        let total = String.length data in
        if off < 0 || off > total || max_bytes <= 0 then None
        else
          let len = min max_bytes (total - off) in
          Some (Obj_reply { seq; index; off; total; data = String.sub data off len })
      | None -> None)
  | Head_reply _ | Meta_reply _ | Obj_reply _ -> None

(* --- fetcher ---------------------------------------------------------------- *)

type params = {
  window : int;
  chunk_bytes : int;
  strike_limit : int;
  max_backoff_rounds : int;
  max_obj_bytes : int;
}

let default_params =
  {
    window = 8;
    chunk_bytes = 4096;
    strike_limit = 3;
    max_backoff_rounds = 8;
    max_obj_bytes = 1 lsl 24;
  }

type source = {
  src_id : int;
  mutable out : int;
  mutable sent : int;
  mutable bytes : int;
  mutable strikes : int;
  mutable quarantine : int;
  mutable quarantines : int;
}

type stats = {
  mutable meta_fetched : int;
  mutable objects_fetched : int;
  mutable bytes_fetched : int;
  mutable chunks_fetched : int;
  mutable cache_hits : int;
  mutable retries : int;
  mutable quarantines : int;
  (* Replies whose payload failed digest verification against the certified
     target — the signature of a Byzantine or stale responder.  Exposed so
     the runtime can re-target a fetch instead of stalling on retries. *)
  mutable heads_rejected : int;
  mutable meta_rejected : int;
  mutable objects_rejected : int;
}

let zero_stats () =
  {
    meta_fetched = 0;
    objects_fetched = 0;
    bytes_fetched = 0;
    chunks_fetched = 0;
    cache_hits = 0;
    retries = 0;
    quarantines = 0;
    heads_rejected = 0;
    meta_rejected = 0;
    objects_rejected = 0;
  }

let rejected s = s.heads_rejected + s.meta_rejected + s.objects_rejected

let add_delta ~into ~before after =
  into.meta_fetched <- into.meta_fetched + (after.meta_fetched - before.meta_fetched);
  into.objects_fetched <- into.objects_fetched + (after.objects_fetched - before.objects_fetched);
  into.bytes_fetched <- into.bytes_fetched + (after.bytes_fetched - before.bytes_fetched);
  into.chunks_fetched <- into.chunks_fetched + (after.chunks_fetched - before.chunks_fetched);
  into.cache_hits <- into.cache_hits + (after.cache_hits - before.cache_hits);
  into.retries <- into.retries + (after.retries - before.retries);
  into.quarantines <- into.quarantines + (after.quarantines - before.quarantines);
  into.heads_rejected <- into.heads_rejected + (after.heads_rejected - before.heads_rejected);
  into.meta_rejected <- into.meta_rejected + (after.meta_rejected - before.meta_rejected);
  into.objects_rejected <-
    into.objects_rejected + (after.objects_rejected - before.objects_rejected)

(* Fetched objects install in ascending index order (indices are unique, so
   the payload never participates in the comparison). *)
let compare_obj (i, _) (j, _) = Int.compare i j

(* A unit of pipelined work: the head is broadcast outside the window (it is
   16 bytes and any of the f+1 certifying replicas can answer), so only meta
   and object-chunk requests are keyed here. *)
type rkey =
  | K_meta of int * int  (* level, index *)
  | K_obj of int * int  (* object index, chunk number *)

let rkey_equal a b =
  match (a, b) with
  | K_meta (l, i), K_meta (l', i') -> Int.equal l l' && Int.equal i i'
  | K_obj (i, c), K_obj (i', c') -> Int.equal i i' && Int.equal c c'
  | K_meta _, K_obj _ | K_obj _, K_meta _ -> false

type flight = { fl_key : rkey; fl_src : int; fl_round : int }

(* Reassembly state of one object being fetched in chunked ranges.  The
   shape ([of_total], and hence the chunk count) is unknown until the first
   reply and is itself unverified until the assembled object checks against
   the certified leaf digest — a lying server can at worst waste the
   bandwidth of one assembly round before it is struck. *)
type objfetch = {
  of_digest : Digest.t;
  mutable of_total : int;  (* -1 until the first reply fixes the shape *)
  mutable of_buf : Bytes.t;
  mutable of_have : bool array;  (* per-chunk received flags *)
  mutable of_srcs : int list;  (* contributors, newest first, deduplicated *)
}

type t = {
  repo : Objrepo.t;
  target_seq : int;
  target_digest : Digest.t;
  params : params;
  sources : source array;  (* sorted by id *)
  send : dst:int -> msg -> unit;
  trace : string -> unit;
  on_complete : seq:int -> app_root:Digest.t -> client_rows:(int * int64 * string) list -> unit;
  mutable app_root : Digest.t option;
  mutable client_rows : (int * int64 * string) list;
  (* Certified digests of tree nodes we are waiting on, keyed by (level, index). *)
  pending_meta : (int * int, Digest.t) Hashtbl.t;
  (* Chunked-fetch state of the objects we are waiting on, keyed by index. *)
  pending_objs : (int, objfetch) Hashtbl.t;
  fetched : (int, string) Hashtbl.t;
  queue : rkey Queue.t;  (* work admitted but not yet in flight *)
  mutable inflight : flight list;  (* newest first *)
  mutable n_inflight : int;
  mutable round : int;  (* retry rounds elapsed; stamps flights for timeout *)
  mutable done_ : bool;
  stats : stats;
}

let finished t = t.done_

let stats t = t.stats

let inflight t = t.n_inflight

let scoreboard t = t.sources

let find_source t id =
  let found = ref None in
  Array.iter (fun s -> if Int.equal s.src_id id then found := Some s) t.sources;
  !found

let n_chunks ~total ~chunk = max 1 ((total + chunk - 1) / chunk)

(* Is this key still worth sending?  Keys can go stale in the queue when a
   cache hit or another source satisfies the work first. *)
let still_wanted t key =
  match key with
  | K_meta (level, index) -> Hashtbl.mem t.pending_meta (level, index)
  | K_obj (index, c) -> (
    match Hashtbl.find_opt t.pending_objs index with
    | None -> false
    | Some ofe ->
      if ofe.of_total < 0 then c = 0
      else c < n_chunks ~total:ofe.of_total ~chunk:t.params.chunk_bytes && not ofe.of_have.(c))

let request_of t key =
  match key with
  | K_meta (level, index) -> Fetch_meta { seq = t.target_seq; level; index }
  | K_obj (index, c) ->
    Fetch_obj
      {
        seq = t.target_seq;
        index;
        off = c * t.params.chunk_bytes;
        max_bytes = t.params.chunk_bytes;
      }

(* Deterministic source choice: the available source with the fewest
   outstanding requests, breaking ties by fewest strikes then lowest id —
   this is what stripes a burst of requests across the whole group.  If
   every source is quarantined, the least-punished one is released instead
   of stalling the fetch. *)
let pick_source t =
  let better a b =
    match Int.compare a.out b.out with
    | 0 -> (
      match Int.compare a.strikes b.strikes with
      | 0 -> a.src_id < b.src_id
      | c -> c < 0)
    | c -> c < 0
  in
  let best = ref None in
  Array.iter
    (fun s ->
      if s.quarantine = 0 then
        match !best with
        | None -> best := Some s
        | Some b -> if better s b then best := Some s)
    t.sources;
  match !best with
  | Some s -> s
  | None ->
    let least = ref None in
    Array.iter
      (fun s ->
        match !least with
        | None -> least := Some s
        | Some b ->
          if s.quarantine < b.quarantine || (s.quarantine = b.quarantine && s.src_id < b.src_id)
          then least := Some s)
      t.sources;
    (match !least with
    | Some s ->
      s.quarantine <- 0;
      s
    | None -> Base_util.Invariant.violated "State_transfer: no fetch sources")

(* Admit queued work into the window. *)
let pump t =
  while (not t.done_) && t.n_inflight < t.params.window && not (Queue.is_empty t.queue) do
    let key = Queue.pop t.queue in
    if still_wanted t key then begin
      let s = pick_source t in
      s.out <- s.out + 1;
      s.sent <- s.sent + 1;
      t.inflight <- { fl_key = key; fl_src = s.src_id; fl_round = t.round } :: t.inflight;
      t.n_inflight <- t.n_inflight + 1;
      t.send ~dst:s.src_id (request_of t key)
    end
  done

(* Retire the flight carrying [key] (at most one exists). *)
let complete_flight t key =
  let found = ref false in
  t.inflight <-
    List.filter
      (fun fl ->
        if (not !found) && rkey_equal fl.fl_key key then begin
          found := true;
          t.n_inflight <- t.n_inflight - 1;
          (match find_source t fl.fl_src with
          | Some s -> s.out <- s.out - 1
          | None -> ());
          false
        end
        else true)
      t.inflight

(* Pull every assignment of [s] back into the queue (used when [s] is
   quarantined: its outstanding requests re-stripe over the other sources
   immediately instead of waiting out the retry timer). *)
let reassign_from t s =
  let mine, rest = List.partition (fun fl -> Int.equal fl.fl_src s.src_id) t.inflight in
  t.inflight <- rest;
  t.n_inflight <- t.n_inflight - List.length mine;
  s.out <- s.out - List.length mine;
  List.iter (fun fl -> Queue.add fl.fl_key t.queue) mine

(* One verification failure (or timeout) attributed to [from].  Reaching
   [strike_limit] quarantines the source for a capped-exponential number of
   retry rounds and re-stripes its outstanding work. *)
let strike t from =
  match find_source t from with
  | None -> ()
  | Some s ->
    s.strikes <- s.strikes + 1;
    if s.strikes >= t.params.strike_limit then begin
      s.strikes <- 0;
      s.quarantines <- s.quarantines + 1;
      s.quarantine <- min t.params.max_backoff_rounds (1 lsl min 6 s.quarantines);
      t.stats.quarantines <- t.stats.quarantines + 1;
      t.trace
        (Printf.sprintf "quarantine src=%d rounds=%d (total %d)" s.src_id s.quarantine
           s.quarantines);
      reassign_from t s
    end

(* A verified reply decays one strike: occasional timeout strikes against a
   healthy source must not accumulate into a quarantine. *)
let credit t from ~bytes =
  match find_source t from with
  | None -> ()
  | Some s ->
    s.bytes <- s.bytes + bytes;
    s.strikes <- max 0 (s.strikes - 1)

(* Transport accounting only — an accepted chunk of a multi-chunk object
   is NOT yet verified (only the assembled whole can be checked against
   the leaf digest), so it must not decay strikes: a liar whose corrupt
   chunks are each "accepted" would otherwise earn back every strike its
   rejected assemblies cost it and never be quarantined.  Strike decay for
   chunk contributors happens when their assembly verifies. *)
let note_bytes t from ~bytes =
  match find_source t from with None -> () | Some s -> s.bytes <- s.bytes + bytes

let broadcast_head t =
  Array.iter (fun s -> t.send ~dst:s.src_id (Fetch_head { seq = t.target_seq })) t.sources

let start ?(params = default_params) ?(trace = fun _ -> ()) ~repo ~sources ~target_seq
    ~target_digest ~send ~on_complete () =
  Base_util.Invariant.require (sources <> []) "State_transfer.start: no sources";
  let t =
    {
      repo;
      target_seq;
      target_digest;
      params;
      sources =
        Array.of_list
          (List.map
             (fun id ->
               { src_id = id; out = 0; sent = 0; bytes = 0; strikes = 0; quarantine = 0;
                 quarantines = 0 })
             (List.sort_uniq Int.compare sources));
      send;
      trace;
      on_complete;
      app_root = None;
      client_rows = [];
      pending_meta = Hashtbl.create 16;
      pending_objs = Hashtbl.create 64;
      fetched = Hashtbl.create 64;
      queue = Queue.create ();
      inflight = [];
      n_inflight = 0;
      round = 0;
      done_ = false;
      stats = zero_stats ();
    }
  in
  broadcast_head t;
  t

let local_tree t = Objrepo.current_tree t.repo

let maybe_complete t =
  if
    (not t.done_) && t.app_root <> None
    && Hashtbl.length t.pending_meta = 0
    && Hashtbl.length t.pending_objs = 0
  then begin
    t.done_ <- true;
    let objs = Hashtbl.fold (fun i data acc -> (i, data) :: acc) t.fetched [] in
    let objs = List.sort compare_obj objs in
    (* Invalidate stale local checkpoints before mutating the concrete
       state, then install the whole batch with one put_objs call. *)
    Objrepo.discard_below t.repo (t.target_seq + 1);
    if objs <> [] then Objrepo.install t.repo objs;
    let app_root = Option.get t.app_root in
    t.on_complete ~seq:t.target_seq ~app_root ~client_rows:t.client_rows
  end

(* Descend into a certified node: if our local digest already matches, the
   whole partition is up to date; if the leaf cache holds the certified
   value, install it without a fetch; otherwise queue the children request
   (or the first object chunk at the leaf level). *)
let expand t ~level ~index certified =
  let tree = local_tree t in
  let leaf_level = Partition_tree.levels tree - 1 in
  let local = Partition_tree.node tree ~level ~index in
  if not (Digest.equal local certified) then begin
    if level = leaf_level then begin
      if not (Hashtbl.mem t.pending_objs index) && not (Hashtbl.mem t.fetched index) then begin
        match Objrepo.cache_find t.repo certified with
        | Some data ->
          (* The certified value passed through this replica before (an old
             checkpoint value saved by copy-on-write, or a previous fetch):
             no network round trip needed. *)
          Hashtbl.replace t.fetched index data;
          t.stats.cache_hits <- t.stats.cache_hits + 1
        | None ->
          Hashtbl.replace t.pending_objs index
            { of_digest = certified; of_total = -1; of_buf = Bytes.empty; of_have = [||];
              of_srcs = [] };
          Queue.add (K_obj (index, 0)) t.queue
      end
    end
    else if not (Hashtbl.mem t.pending_meta (level, index)) then begin
      Hashtbl.replace t.pending_meta (level, index) certified;
      Queue.add (K_meta (level, index)) t.queue
    end
  end

(* The whole object [index] verified and is ready to install. *)
let accept_object t ~index ~data =
  Hashtbl.remove t.pending_objs index;
  Hashtbl.replace t.fetched index data;
  t.stats.objects_fetched <- t.stats.objects_fetched + 1;
  t.stats.bytes_fetched <- t.stats.bytes_fetched + String.length data

let add_contributor ofe from =
  if not (List.exists (fun s -> Int.equal s from) ofe.of_srcs) then
    ofe.of_srcs <- from :: ofe.of_srcs

(* The assembled bytes did not match the certified leaf digest: at least one
   contributor lied.  Strike them all (the honest ones decay the strike with
   their next verified reply), reset the assembly and re-stripe from chunk
   zero. *)
let reject_assembly t ~index ofe =
  t.stats.objects_rejected <- t.stats.objects_rejected + 1;
  t.trace
    (Printf.sprintf "obj %d assembly rejected (contributors: %s)" index
       (String.concat "," (List.map string_of_int (List.sort Int.compare ofe.of_srcs))));
  List.iter (fun s -> strike t s) (List.sort Int.compare ofe.of_srcs);
  ofe.of_total <- -1;
  ofe.of_buf <- Bytes.empty;
  ofe.of_have <- [||];
  ofe.of_srcs <- [];
  Queue.add (K_obj (index, 0)) t.queue

let handle_obj_reply t ~from ~index ~off ~total ~data =
  match Hashtbl.find_opt t.pending_objs index with
  | None -> ()  (* already satisfied (duplicate or unsolicited) *)
  | Some ofe ->
    let chunk = t.params.chunk_bytes in
    let reject () =
      t.stats.objects_rejected <- t.stats.objects_rejected + 1;
      strike t from
    in
    if off < 0 || total < 0 || total > t.params.max_obj_bytes || off mod chunk <> 0 then reject ()
    else begin
      let c = off / chunk in
      if ofe.of_total < 0 then begin
        (* First reply: it fixes the claimed shape.  Only chunk 0 is ever
           requested before the shape is known. *)
        if c <> 0 then ()
        else if total <= chunk then begin
          if
            String.length data = total
            && Digest.equal (Service.object_digest index data) ofe.of_digest
          then begin
            complete_flight t (K_obj (index, 0));
            credit t from ~bytes:total;
            accept_object t ~index ~data;
            maybe_complete t
          end
          else reject ()
        end
        else if String.length data <> chunk then reject ()
        else begin
          ofe.of_total <- total;
          ofe.of_buf <- Bytes.create total;
          ofe.of_have <- Array.make (n_chunks ~total ~chunk) false;
          Bytes.blit_string data 0 ofe.of_buf 0 chunk;
          ofe.of_have.(0) <- true;
          add_contributor ofe from;
          t.stats.chunks_fetched <- t.stats.chunks_fetched + 1;
          complete_flight t (K_obj (index, 0));
          note_bytes t from ~bytes:chunk;
          for c' = 1 to Array.length ofe.of_have - 1 do
            Queue.add (K_obj (index, c')) t.queue
          done
        end
      end
      else if total <> ofe.of_total then reject ()
      else begin
        let n = Array.length ofe.of_have in
        if c >= n || ofe.of_have.(c) then ()  (* duplicate: ignore *)
        else begin
          (* Recompute the offset from the validated chunk number: [c] is
             in-range here, so [off] is provably inside the buffer, which
             the wire value alone is not. *)
          let off = c * chunk in
          let expect = min chunk (ofe.of_total - off) in
          if String.length data <> expect then reject ()
          else begin
            Bytes.blit_string data 0 ofe.of_buf off expect;
            ofe.of_have.(c) <- true;
            add_contributor ofe from;
            t.stats.chunks_fetched <- t.stats.chunks_fetched + 1;
            complete_flight t (K_obj (index, c));
            note_bytes t from ~bytes:expect;
            if Array.for_all Fun.id ofe.of_have then begin
              let assembled = Bytes.to_string ofe.of_buf in
              if Digest.equal (Service.object_digest index assembled) ofe.of_digest then begin
                (* The assembly verified: only now do the chunk
                   contributors earn their strike decay. *)
                List.iter (fun s -> credit t s ~bytes:0) (List.sort Int.compare ofe.of_srcs);
                accept_object t ~index ~data:assembled;
                maybe_complete t
              end
              else reject_assembly t ~index ofe
            end
          end
        end
      end
    end

let handle_reply t ~from msg =
  if not t.done_ then begin
    (match msg with
    | Head_reply { seq; app_root; client_rows } when seq = t.target_seq && t.app_root = None ->
      let combined = Digest.combine [ app_root; rows_digest client_rows ] in
      if Digest.equal combined t.target_digest then begin
        t.app_root <- Some app_root;
        t.client_rows <- client_rows;
        credit t from ~bytes:0;
        expand t ~level:0 ~index:0 app_root;
        maybe_complete t
      end
      else begin
        (* A head that does not verify against the certified checkpoint
           digest: Byzantine or stale responder.  Count it so the runtime
           can re-target instead of stalling on blind retries. *)
        t.stats.heads_rejected <- t.stats.heads_rejected + 1;
        strike t from
      end
    | Meta_reply { seq; level; index; children } when seq = t.target_seq -> (
      match Hashtbl.find_opt t.pending_meta (level, index) with
      | Some certified
        when Digest.equal (Digest.of_list (Array.to_list (Array.map Digest.raw children))) certified
        ->
        Hashtbl.remove t.pending_meta (level, index);
        complete_flight t (K_meta (level, index));
        credit t from ~bytes:0;
        t.stats.meta_fetched <- t.stats.meta_fetched + 1;
        let tree = local_tree t in
        let first, _last = Partition_tree.child_span tree ~level ~index in
        Array.iteri (fun k d -> expand t ~level:(level + 1) ~index:(first + k) d) children;
        maybe_complete t
      | Some _ ->
        t.stats.meta_rejected <- t.stats.meta_rejected + 1;
        strike t from
      | None -> ())
    | Obj_reply { seq; index; off; total; data } when seq = t.target_seq ->
      handle_obj_reply t ~from ~index ~off ~total ~data
    | Head_reply _ | Meta_reply _ | Obj_reply _
    | Fetch_head _ | Fetch_meta _ | Fetch_obj _ -> ());
    pump t
  end

let retry t =
  if not t.done_ then begin
    t.stats.retries <- t.stats.retries + 1;
    t.round <- t.round + 1;
    Array.iter (fun s -> if s.quarantine > 0 then s.quarantine <- s.quarantine - 1) t.sources;
    if t.app_root = None then broadcast_head t;
    (* Flights armed before the previous round have had at least one full
       retry period to answer: count a timeout strike against the slow
       source and re-stripe the request.  (A flight sent just before this
       tick is NOT stale — it gets the next full round.) *)
    let stale, live = List.partition (fun fl -> fl.fl_round < t.round - 1) t.inflight in
    t.inflight <- live;
    t.n_inflight <- t.n_inflight - List.length stale;
    List.iter
      (fun fl ->
        (match find_source t fl.fl_src with Some s -> s.out <- s.out - 1 | None -> ());
        Queue.add fl.fl_key t.queue)
      stale;
    List.iter (fun fl -> strike t fl.fl_src) stale;
    if stale <> [] then
      t.trace (Printf.sprintf "retry round %d: %d timed-out requests re-striped" t.round
                 (List.length stale));
    pump t
  end
