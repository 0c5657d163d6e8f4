module M = Message

type client = {
  mutable last_ts : int64;
  mutable last_reply : M.reply option;
  mutable pending : M.request option;
  mutable pending_env : M.envelope option;
  mutable pending_since : int64;
  mutable assigned_ts : int64;
  mutable assigned_seq : Types.seqno;
}

type t = { clients : (int, client) Hashtbl.t; mutable n_pending : int }

type row = int * int64 * string

let create () = { clients = Hashtbl.create 16; n_pending = 0 }

let find t c =
  match Hashtbl.find_opt t.clients c with
  | Some cr -> cr
  | None ->
    let cr =
      {
        last_ts = -1L;
        last_reply = None;
        pending = None;
        pending_env = None;
        pending_since = -1L;
        assigned_ts = -1L;
        assigned_seq = -1;
      }
    in
    Hashtbl.replace t.clients c cr;
    cr

let any_pending t = t.n_pending > 0

(* Every write to [pending] goes through here, so [n_pending] answers "is
   any client waiting?" without scanning the table. *)
let set_pending t cr p env =
  (match (cr.pending, p) with
  | None, Some _ -> t.n_pending <- t.n_pending + 1
  | Some _, None -> t.n_pending <- t.n_pending - 1
  | Some _, Some _ | None, None -> ());
  cr.pending <- p;
  cr.pending_env <- env

let mark_pending ?env t cr (r : M.request) ~waiting_since =
  match cr.pending with
  | Some p when p.timestamp >= r.timestamp -> ()
  | Some _ | None ->
    if r.timestamp > cr.last_ts then begin
      cr.pending_since <- waiting_since;
      set_pending t cr (Some r) env
    end

let stop_wait cr (r : M.request) =
  match cr.pending with
  | Some p when p.timestamp > r.timestamp -> -1L
  | Some _ | None ->
    let since = cr.pending_since in
    cr.pending_since <- -1L;
    since

let assign cr (r : M.request) seq =
  cr.assigned_ts <- r.timestamp;
  cr.assigned_seq <- seq

let queued cr (r : M.request) = Int64.equal r.timestamp cr.assigned_ts && cr.assigned_seq = 0

let enqueue cr r =
  let fresh = not (queued cr r) in
  if fresh then assign cr r 0;
  fresh

(* A reset table ([install]) forgets the mark, so a request newer than the
   last assignment counts as queued too. *)
let dequeue cr (r : M.request) seq =
  let fresh = r.timestamp > cr.last_ts && (r.timestamp > cr.assigned_ts || queued cr r) in
  if fresh then assign cr r seq;
  fresh

let executed t cr (r : M.request) reply =
  cr.last_ts <- r.timestamp;
  cr.last_reply <- reply;
  match cr.pending with
  | Some p when p.timestamp <= r.timestamp -> set_pending t cr None None
  | Some _ | None -> ()

let pending_clients t =
  Hashtbl.fold (fun c cr acc -> if cr.pending = None then acc else (c, cr) :: acc) t.clients []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map snd

(* Client ids are unique, so sorting by client is the rows' total order. *)
let rows t =
  Hashtbl.fold
    (fun c cr acc ->
      match cr.last_reply with Some rep -> (c, cr.last_ts, rep.M.result) :: acc | None -> acc)
    t.clients []
  |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)

let checkpoint_digest ~app_digest rows =
  let e = Base_codec.Xdr.encoder () in
  Base_codec.Xdr.list e
    (fun e (c, ts, res) ->
      Base_codec.Xdr.u32 e c;
      Base_codec.Xdr.i64 e ts;
      Base_codec.Xdr.opaque e res)
    rows;
  Base_crypto.Digest_t.combine
    [ app_digest; Base_crypto.Digest_t.of_string (Base_codec.Xdr.contents e) ]

let install t ~view ~replica rows =
  Hashtbl.reset t.clients;
  t.n_pending <- 0;
  List.iter
    (fun (c, ts, result) ->
      let cr = find t c in
      cr.last_ts <- ts;
      cr.last_reply <- Some { M.view; timestamp = ts; client = c; replica; result })
    rows
