(* The pure rules of a view change: the plausibility checks a VIEW-CHANGE
   and a NEW-VIEW must pass before any of their numbers are used, and the
   new view's pre-prepare set O.  The handlers that adopt the results
   ([view], [next_seq]) stay in [Replica]. *)

module Digest = Base_crypto.Digest_t
module M = Message

(* A view-change passes the MAC check on its own authority, so every field
   is still just the sender's claim.  Before it enters the [vcs] table —
   where [compute_o] and the liveness rule consume it as fact — require
   the claims to be mutually plausible: non-negative watermarks, and every
   prepared proof within one log window above the stable checkpoint (the
   only place an honest replica can have prepared anything).  A proof
   outside that range could otherwise widen the reconstructed new-view
   window to an attacker-chosen span. *)
let vc_sane (config : Types.config) (vc : M.view_change) =
  vc.last_stable >= 0
  && List.for_all
       (fun (p : M.prepared_proof) ->
         p.pp_seq > vc.last_stable
         && p.pp_seq <= vc.last_stable + config.log_window
         && p.pp_view >= 0 && p.pp_view < vc.new_view
         && List.length p.pp_requests <= config.batch_max)
       vc.prepared

(* The new view's stable checkpoint: the highest one claimed in a NEW-VIEW's
   [(replica, last_stable)] summary. *)
let min_s summary = List.fold_left (fun acc (_, s) -> max acc s) 0 summary

(* Shape check on a NEW-VIEW before we adopt any of its numbers: the
   claimed stable seqnos must be non-negative and every bundled
   pre-prepare must sit inside one log window above [min_s], the highest
   claimed checkpoint, in the new view itself.  Without this a Byzantine
   primary could teleport [next_seq] (and thus the whole log window) to an
   arbitrary seqno of its choosing. *)
let nv_sane (config : Types.config) ~min_s (nv : M.new_view) =
  nv.nv_view > 0
  && List.for_all (fun (_, s) -> s >= 0) nv.nv_view_changes
  && List.for_all
       (fun (pp : M.pre_prepare) ->
         pp.view = nv.nv_view && pp.seq > min_s && pp.seq <= min_s + config.log_window)
       nv.nv_pre_prepares

(* Compute the new-view pre-prepare set O from a view-change set.  The
   rebuilt window is capped at [log_window] slots below [max_s]: honest
   view-changes only carry prepared proofs within one window of their
   stable checkpoint, so the cap is invisible to them, while a Byzantine
   proof claiming a far-away [pp_seq] can no longer make this loop (and
   the pre-prepares it allocates) arbitrarily long. *)
let compute_o ~log_window v' (vc_list : M.view_change list) =
  let min_s = List.fold_left (fun acc vc -> max acc vc.M.last_stable) 0 vc_list in
  let max_s =
    List.fold_left
      (fun acc vc -> List.fold_left (fun acc p -> max acc p.M.pp_seq) acc vc.M.prepared)
      min_s vc_list
  in
  let count = min (max_s - min_s) log_window in
  let o = ref [] in
  for k = 0 to count - 1 do
    let seq = max_s - k in
    let best =
      List.fold_left
        (fun acc vc ->
          List.fold_left
            (fun acc p ->
              if p.M.pp_seq <> seq then acc
              else
                match acc with
                | Some b when b.M.pp_view >= p.M.pp_view -> acc
                | Some _ | None -> Some p)
            acc vc.M.prepared)
        None vc_list
    in
    let pp =
      match best with
      | Some p ->
        { M.view = v'; seq; digest = p.M.pp_digest; requests = p.M.pp_requests; nondet = p.M.pp_nondet }
      | None -> { M.view = v'; seq; digest = Log.ordering_digest [] ""; requests = []; nondet = "" }
    in
    o := pp :: !o
  done;
  !o

(* Whether O recomputed from the view-changes a NEW-VIEW names matches the
   pre-prepares it carries, slot by slot. *)
let o_matches ~log_window (nv : M.new_view) vcs =
  List.equal
    (fun (a : M.pre_prepare) (b : M.pre_prepare) -> a.seq = b.seq && Digest.equal a.digest b.digest)
    (compute_o ~log_window nv.nv_view vcs)
    nv.nv_pre_prepares
