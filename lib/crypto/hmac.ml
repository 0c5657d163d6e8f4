let block_size = 64

let normalize_key key =
  let key = if String.length key > block_size then Sha256.digest key else key in
  if String.length key < block_size then
    key ^ String.make (block_size - String.length key) '\000'
  else key

let xor_pad key pad =
  String.init block_size (fun i -> Char.chr (Char.code key.[i] lxor Char.code pad))

(* Precomputed keys: the ipad/opad blocks depend only on the key, so their
   compression (one SHA-256 block each) is paid once per session key and
   kept as two 8-word midstates.  [mac_prepared] reloads them into the
   SHA-256 scratch context and hashes only the message and the 32-byte
   inner digest — for the short digests the batch authenticators MAC, that
   is 2 compressions instead of 4, and no allocation but the tag. *)
type prepared = { inner : Sha256.midstate; outer : Sha256.midstate }

let prepare ~key =
  let key = normalize_key key in
  {
    inner = Sha256.block_midstate (xor_pad key '\x36');
    outer = Sha256.block_midstate (xor_pad key '\x5c');
  }

(* Scratch for the suffix word and for a 32-byte digest: the inner one,
   then, in [verify_prepared], the expected tag.  Single-domain, like the
   SHA-256 scratch each MAC runs in. *)
let suffix_word = Bytes.create 4

let digest_buf = Bytes.create 32

(* H(opad || H(ipad || msg || suffix)), left unfinalised in the SHA-256
   scratch context. *)
let outer_ctx p ~suffix msg =
  Base_util.Invariant.require (suffix >= 0 && suffix <= 0xffffffff) "Hmac: suffix is not a u32";
  let ctx = Sha256.resume p.inner in
  Sha256.update ctx msg;
  if suffix <> 0 then begin
    Bytes.set_int32_be suffix_word 0 (Int32.of_int suffix);
    Sha256.update_bytes ctx suffix_word ~pos:0 ~len:4
  end;
  Sha256.finalize_into ctx digest_buf;
  let ctx = Sha256.resume p.outer in
  Sha256.update_bytes ctx digest_buf ~pos:0 ~len:32;
  ctx

let mac_prepared p ~suffix msg = Sha256.finalize (outer_ctx p ~suffix msg)

(* Folds over all bytes rather than short-circuiting. *)
let equal_ct a b =
  let n = String.length a in
  if n <> String.length b then false
  else begin
    let diff = ref 0 in
    for i = 0 to n - 1 do
      diff := !diff lor (Char.code (String.unsafe_get a i) lxor Char.code (String.unsafe_get b i))
    done;
    !diff = 0
  end

let verify_prepared p ~suffix msg ~tag =
  Sha256.finalize_into (outer_ctx p ~suffix msg) digest_buf;
  equal_ct (Bytes.unsafe_to_string digest_buf) tag

let mac ~key msg = mac_prepared (prepare ~key) ~suffix:0 msg

let verify ~key msg ~tag = verify_prepared (prepare ~key) ~suffix:0 msg ~tag
