(* One replica driven message by message, with no simulator behind it.  The
   test seals every envelope it delivers (as any principal of the group),
   outgoing sends are recorded but never delivered, and the replica's timers
   are recorded so a test can ask which are armed and fire them by hand.

   The group is f = 1: replicas 0-3, clients 4-6.  Replica 0 leads view 0. *)

module M = Base_bft.Message
module Replica = Base_bft.Replica
module Types = Base_bft.Types
module Auth = Base_crypto.Auth
module Digest = Base_crypto.Digest_t

type t = {
  replica : Replica.t;
  chains : Auth.keychain array;
  metrics : Base_obs.Metrics.t;
  profile : Base_obs.Profile.t;  (* enabled: probe call counts are live *)
  sent : (int * M.envelope) list ref;  (* (dst, envelope), newest first *)
  timers : (int, string) Hashtbl.t;  (* armed timer id -> tag *)
  executed : (int * int64) list ref;  (* (client, timestamp), newest first *)
}

let config = Types.make_config ~checkpoint_period:16 ~log_window:32 ~f:1 ~n_clients:3 ()

(* The application state never changes, so every checkpoint has this
   digest. *)
let app_digest = Digest.of_string "lone-app"

let create ~id =
  let chains = Auth.create ~seed:17L ~n_principals:config.Types.n_principals in
  let metrics = Base_obs.Metrics.create () in
  let profile = Base_obs.Profile.create () in
  Base_obs.Profile.enable profile;
  let timers = Hashtbl.create 4 and last_timer = ref 0 and executed = ref [] in
  let sent = ref [] in
  let net =
    {
      Replica.send = (fun ~dst env -> sent := (dst, env) :: !sent);
      set_timer =
        (fun ~after_us:_ ~tag ~payload:_ ->
          incr last_timer;
          Hashtbl.replace timers !last_timer tag;
          !last_timer);
      cancel_timer = Hashtbl.remove timers;
      now_us = (fun () -> 0L);
    }
  in
  let app =
    {
      Replica.execute =
        (fun ~client ~timestamp ~operation:_ ~nondet:_ ~read_only:_ ->
          executed := (client, timestamp) :: !executed;
          "ok");
      propose_nondet = (fun ~operation:_ -> "");
      check_nondet = (fun ~operation:_ ~nondet:_ -> true);
      ready = Replica.always_ready;
      take_checkpoint = (fun ~seq:_ ~client_rows:_ -> app_digest);
      discard_checkpoints_below = ignore;
      start_fetch = (fun ~seq:_ ~digest:_ -> ());
    }
  in
  let replica =
    Replica.create ~metrics ~profile ~config ~id ~keychain:chains.(id) ~net ~app ()
  in
  { replica; chains; metrics; profile; sent; timers; executed }

(* [body] sealed by principal [sender] for the group. *)
let envelope t ~sender body = M.seal t.chains.(sender) ~sender ~n_receivers:config.Types.n body

(* Deliver [body] as sent by principal [sender]. *)
let deliver t ~sender body = Replica.receive t.replica (envelope t ~sender body)

let request ~client ts =
  { M.client; timestamp = ts; operation = Printf.sprintf "set:0:%Ld" ts; read_only = false }

let pre_prepare ~seq requests =
  {
    M.view = 0;
    seq;
    digest = Digest.of_string (M.encode_batch requests ~nondet:"");
    requests;
    nondet = "";
  }

(* Drive slot [pp.seq] to execution: the primary's PRE-PREPARE, then
   PREPAREs from the other two backups and COMMITs from everyone else. *)
let order t (pp : M.pre_prepare) =
  let me = Replica.id t.replica in
  deliver t ~sender:0 (M.Pre_prepare pp);
  List.iter
    (fun r ->
      if r <> me && r <> 0 then
        deliver t ~sender:r (M.Prepare { view = 0; seq = pp.seq; digest = pp.digest; replica = r }))
    [ 1; 2; 3 ];
  List.iter
    (fun r ->
      if r <> me then
        deliver t ~sender:r (M.Commit { view = 0; seq = pp.seq; digest = pp.digest; replica = r }))
    [ 0; 1; 2; 3 ]

let vc_armed t = Seq.exists (String.equal "vc") (Hashtbl.to_seq_values t.timers)

let insane_count t =
  Base_obs.Metrics.counter_value (Base_obs.Metrics.counter t.metrics "bft.reject.insane")

let seal_calls t = Base_obs.Profile.probe_calls (Base_obs.Profile.probe t.profile "bft.seal")
