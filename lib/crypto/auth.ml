(* Pairwise session keys, derived lazily.

   The original implementation materialised the full P x P key matrix at
   [create], which is O(P^2) time and memory — prohibitive once the client
   population reaches the thousands the open-loop load harness simulates.
   Keys are instead derived on demand from a group master secret:

     key(i, j) = HMAC(master, lo || hi || epoch(lo) || epoch(hi))

   with lo = min i j, hi = max i j, so both endpoints derive the same key
   without ever exchanging it.  Epochs live in one array shared by every
   keychain (the simulator plays the trusted key-exchange channel);
   refreshing principal [i] bumps [epochs.(i)], which atomically invalidates
   every key [i] shares — exactly the post-reboot key change proactive
   recovery relies on.  Derived keys are memoised per chain, keyed by the
   epoch pair they were derived under, so steady-state MAC cost is one HMAC
   as before and memory is proportional to the pairs that actually
   communicate, not to P^2. *)

type cached = {
  ck_epoch_lo : int;
  ck_epoch_hi : int;
  ck_key : string;
  ck_prep : Hmac.prepared;  (* key pad blocks pre-compressed, see Hmac.prepare *)
}

type keychain = {
  id : int;
  master : string;  (* group secret; shared by all chains of one [create] *)
  epochs : int array;  (* per-principal refresh counters; shared *)
  generation : int ref;  (* total refreshes across all principals; shared *)
  cache : (int, cached) Hashtbl.t;  (* peer -> memoised session key *)
}

let create ~seed ~n_principals =
  let prng = Base_util.Prng.create seed in
  let master = Bytes.unsafe_to_string (Base_util.Prng.bytes prng 32) in
  let epochs = Array.make n_principals 0 in
  let generation = ref 0 in
  Array.init n_principals (fun id -> { id; master; epochs; generation; cache = Hashtbl.create 8 })

let derive chain ~lo ~hi ~epoch_lo ~epoch_hi =
  Hmac.mac ~key:chain.master (Printf.sprintf "%d.%d.%d.%d" lo hi epoch_lo epoch_hi)

let session chain peer =
  let lo = min chain.id peer and hi = max chain.id peer in
  let epoch_lo = chain.epochs.(lo) and epoch_hi = chain.epochs.(hi) in
  (* [find] rather than [find_opt]: a cache hit, the hot case, allocates
     no option. *)
  match Hashtbl.find chain.cache peer with
  | c when c.ck_epoch_lo = epoch_lo && c.ck_epoch_hi = epoch_hi -> c
  | _ | (exception Not_found) ->
    let key = derive chain ~lo ~hi ~epoch_lo ~epoch_hi in
    let c =
      { ck_epoch_lo = epoch_lo; ck_epoch_hi = epoch_hi; ck_key = key; ck_prep = Hmac.prepare ~key }
    in
    Hashtbl.replace chain.cache peer c;
    c

let session_key chain peer = (session chain peer).ck_key

let refresh_keys chains i =
  (* All chains share the epoch array; bumping one slot re-keys principal
     [i] with every peer (stale cache entries fail their epoch check). *)
  if Array.length chains > 0 then begin
    let any = chains.(0) in
    any.epochs.(i) <- any.epochs.(i) + 1;
    incr any.generation
  end

let generation chain = !(chain.generation)

let mac_for chain ~receiver msg = Hmac.mac ~key:(session_key chain receiver) msg

let authenticator chain ~n msg = Array.init n (fun receiver -> mac_for chain ~receiver msg)

let check chain ~sender msg ~mac = Hmac.verify ~key:(session_key chain sender) msg ~tag:mac

(* Castro-Liskov batch authenticators: the broadcast body is hashed once and
   each receiver's MAC covers the 32-byte digest, so sealing for 3f+1
   receivers costs one body-sized hash plus n small HMACs — and those small
   HMACs run over precomputed key midstates (2 compressions each) instead of
   re-deriving the pad blocks per MAC.  [suffix] is passed through to
   {!Hmac.mac_prepared}. *)

let mac_digest_for chain ~receiver ~suffix digest =
  Hmac.mac_prepared (session chain receiver).ck_prep ~suffix digest

let digest_authenticator chain ~n ~suffix digest =
  Array.init n (fun receiver -> mac_digest_for chain ~receiver ~suffix digest)

let check_digest chain ~sender ~suffix digest ~mac =
  Hmac.verify_prepared (session chain sender).ck_prep ~suffix digest ~tag:mac
