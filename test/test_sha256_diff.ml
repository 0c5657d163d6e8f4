(* Differential and allocation suite for the SHA-256/HMAC kernel.

   {!Base_crypto.Sha256} rotates on doubled words, keeps its working
   variables in registers and runs one-shot digests and MACs in shared
   module-level scratch.  Each of those is a place to get a digest subtly
   wrong, so every public entry point is checked byte-for-byte against the
   pre-overhaul implementation kept in [Sha256_ref] — on every length
   around the block and padding boundaries, split every way, and with two
   contexts and one-shot calls interleaved, which is what would expose a
   context leaking state through the shared scratch.

   The second half is the allocation gate: computing a digest or MAC
   allocates only its 32-byte result, and verifying one allocates
   nothing. *)

module Sha256 = Base_crypto.Sha256
module Hmac = Base_crypto.Hmac
module Auth = Base_crypto.Auth
module M = Base_bft.Message
module Prng = Base_util.Prng
module Hex = Base_util.Hex

let random_string prng n = Bytes.to_string (Prng.bytes prng n)

let check_digest what expected got = Alcotest.(check string) what (Hex.encode expected) (Hex.encode got)

let test_every_length () =
  let prng = Prng.create 1L in
  for n = 0 to 300 do
    let s = random_string prng n in
    check_digest (Printf.sprintf "length %d" n) (Sha256_ref.digest s) (Sha256.digest s)
  done;
  for i = 1 to 100 do
    let s = random_string prng (Prng.int prng 5121) in
    check_digest (Printf.sprintf "random length #%d" i) (Sha256_ref.digest s) (Sha256.digest s)
  done

(* Random cut points, fed through [update] (substrings) into one context and
   through [update_bytes] (a window of a larger buffer, never at offset 0)
   into another. *)
let test_random_chunking () =
  let prng = Prng.create 2L in
  for i = 1 to 200 do
    let s = random_string prng (Prng.int prng 700) in
    let n = String.length s in
    let lead = 1 + Prng.int prng 9 in
    let backing = Bytes.of_string (random_string prng lead ^ s ^ "tail") in
    let by_string = Sha256.init () and by_bytes = Sha256.init () in
    let off = ref 0 in
    while !off < n do
      let len = min (n - !off) (Prng.int prng 150) in
      Sha256.update by_string (String.sub s !off len);
      Sha256.update_bytes by_bytes backing ~pos:(lead + !off) ~len;
      off := !off + len
    done;
    let expected = Sha256_ref.digest s in
    check_digest (Printf.sprintf "update #%d" i) expected (Sha256.finalize by_string);
    check_digest (Printf.sprintf "update_bytes #%d" i) expected (Sha256.finalize by_bytes)
  done

(* Two live contexts fed alternately, with one-shot digests and MACs (which
   run in the shared scratch) between their updates. *)
let test_interleaved_contexts () =
  let prng = Prng.create 3L in
  let key = random_string prng 40 in
  let prep = Hmac.prepare ~key in
  for i = 1 to 50 do
    let a = random_string prng (Prng.int prng 600) and b = random_string prng (Prng.int prng 600) in
    let ca = Sha256.init () and cb = Sha256.init () in
    let pa = ref 0 and pb = ref 0 in
    while !pa < String.length a || !pb < String.length b do
      let feed ctx s p =
        let len = min (String.length s - !p) (Prng.int prng 90) in
        Sha256.update ctx (String.sub s !p len);
        p := !p + len
      in
      feed ca a pa;
      let probe = random_string prng (Prng.int prng 130) in
      check_digest "one-shot between updates" (Sha256_ref.digest probe) (Sha256.digest probe);
      feed cb b pb;
      check_digest "MAC between updates" (Sha256_ref.hmac ~key probe)
        (Hmac.mac_prepared prep ~suffix:0 probe)
    done;
    check_digest (Printf.sprintf "context a #%d" i) (Sha256_ref.digest a) (Sha256.finalize ca);
    check_digest (Printf.sprintf "context b #%d" i) (Sha256_ref.digest b) (Sha256.finalize cb)
  done

let test_digest_list () =
  let prng = Prng.create 4L in
  check_digest "empty list" (Sha256_ref.digest_list []) (Sha256.digest_list []);
  for i = 1 to 100 do
    let parts = List.init (Prng.int prng 8) (fun _ -> random_string prng (Prng.int prng 100)) in
    check_digest (Printf.sprintf "list #%d" i) (Sha256_ref.digest_list parts)
      (Sha256.digest_list parts)
  done

(* RFC 4231 cases 4, 6 and 7; cases 1-3 are in the substrate suite.  Case 6
   and 7 use a 131-byte key, which HMAC hashes first. *)
let test_rfc4231 () =
  let check name ~key msg expected =
    Alcotest.(check string) name expected (Hex.encode (Hmac.mac ~key msg));
    Alcotest.(check string) (name ^ ", prepared") expected
      (Hex.encode (Hmac.mac_prepared (Hmac.prepare ~key) ~suffix:0 msg))
  in
  check "case 4" ~key:(String.init 25 (fun i -> Char.chr (i + 1))) (String.make 50 '\xcd')
    "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b";
  let key = String.make 131 '\xaa' in
  check "case 6" ~key "Test Using Larger Than Block-Size Key - Hash Key First"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54";
  check "case 7" ~key
    "This is a test using a larger than block-size key and a larger than block-size data. The \
     key needs to be hashed before being used by the HMAC algorithm."
    "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"

let be32 k = String.init 4 (fun i -> Char.chr ((k lsr (8 * (3 - i))) land 0xff))

(* Key lengths on both sides of the block size (and the hash-the-key path);
   messages on both sides of the one-block inner hash. *)
let test_prepared_keys () =
  let prng = Prng.create 5L in
  List.iter
    (fun key_len ->
      let key = random_string prng key_len in
      let prep = Hmac.prepare ~key in
      List.iter
        (fun msg_len ->
          let msg = random_string prng msg_len in
          let what = Printf.sprintf "key %d, msg %d" key_len msg_len in
          let tag = Hmac.mac ~key msg in
          check_digest what (Sha256_ref.hmac ~key msg) tag;
          check_digest (what ^ ", prepared") tag (Hmac.mac_prepared prep ~suffix:0 msg);
          Alcotest.(check bool) (what ^ ", verify_prepared") true
            (Hmac.verify_prepared prep ~suffix:0 msg ~tag);
          Alcotest.(check bool) (what ^ ", verify") true (Hmac.verify ~key msg ~tag);
          List.iter
            (fun suffix ->
              let tag = Sha256_ref.hmac ~key (msg ^ be32 suffix) in
              check_digest
                (Printf.sprintf "%s, suffix %d" what suffix)
                tag
                (Hmac.mac_prepared prep ~suffix msg);
              Alcotest.(check bool) (what ^ ", suffixed verify") true
                (Hmac.verify_prepared prep ~suffix msg ~tag);
              Alcotest.(check bool) (what ^ ", suffix is bound") false
                (Hmac.verify_prepared prep ~suffix:0 msg ~tag))
            [ 1; 3; 257; 65_537; 0xffffffff ])
        [ 0; 1; 32; 55; 56; 64; 200 ])
    [ 0; 63; 64; 65; 131 ]

(* --- allocation gate -------------------------------------------------------------- *)

(* Words allocated per call, over 100 calls; [Gc.minor_words] is exact and
   allocates nothing itself. *)
let words_per_call f =
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to 100 do
    f ()
  done;
  (Gc.minor_words () -. before) /. 100.0

(* A fresh 32-byte string: a header word and five data words. *)
let digest_words = 6.0

let test_alloc_hmac () =
  let key = String.make 32 'k' and msg = String.make 32 'd' in
  let prep = Hmac.prepare ~key in
  let tag = Hmac.mac ~key msg in
  let bad = Hmac.mac ~key "other" in
  let words f = words_per_call (fun () -> ignore (Sys.opaque_identity (f ()))) in
  Alcotest.(check (float 0.0)) "verify_prepared, valid tag" 0.0
    (words (fun () -> Hmac.verify_prepared prep ~suffix:0 msg ~tag));
  Alcotest.(check (float 0.0)) "verify_prepared, bad tag" 0.0
    (words (fun () -> Hmac.verify_prepared prep ~suffix:0 msg ~tag:bad));
  Alcotest.(check (float 0.0)) "verify_prepared, suffixed" 0.0
    (words (fun () -> Hmac.verify_prepared prep ~suffix:3 msg ~tag));
  Alcotest.(check (float 0.0)) "mac_prepared: only the tag" digest_words
    (words (fun () -> Hmac.mac_prepared prep ~suffix:0 msg));
  Alcotest.(check (float 0.0)) "mac_prepared, suffixed: only the tag" digest_words
    (words (fun () -> Hmac.mac_prepared prep ~suffix:3 msg))

let test_alloc_digest () =
  let words f = words_per_call (fun () -> ignore (Sys.opaque_identity (f ()))) in
  let data = String.make 4096 'x' in
  Alcotest.(check (float 0.0)) "4 KiB digest: only the result" digest_words
    (words (fun () -> Sha256.digest data));
  let parts = [ data; "abc"; data ] in
  Alcotest.(check (float 0.0)) "digest_list: only the result" digest_words
    (words (fun () -> Sha256.digest_list parts));
  let ctx = Sha256.init () in
  Alcotest.(check (float 0.0)) "update" 0.0 (words (fun () -> Sha256.update ctx data))

(* The receive path: a sealed envelope (digest memoised) verifies with no
   allocation on any shard, and one adopted from the wire pays only for
   its memoised digest. *)
let test_alloc_message_verify () =
  let chains = Auth.create ~seed:9L ~n_principals:4 in
  let body = M.Prepare { view = 0; seq = 5; digest = Base_crypto.Digest_t.of_string "x"; replica = 0 } in
  List.iter
    (fun shard ->
      let env = M.seal chains.(0) ~shard ~sender:0 ~n_receivers:4 body in
      Alcotest.(check bool) "genuine" true (M.verify chains.(1) ~receiver:1 env);
      Alcotest.(check (float 0.0))
        (Printf.sprintf "Message.verify, shard %d" shard)
        0.0
        (words_per_call (fun () -> ignore (Sys.opaque_identity (M.verify chains.(1) ~receiver:1 env)))))
    [ 0; 3 ];
  let sealed = M.seal chains.(0) ~shard:3 ~sender:0 ~n_receivers:4 body in
  let adopt () =
    match M.of_wire ~shard:3 ~sender:0 ~macs:sealed.M.macs sealed.M.wire with
    | Ok env -> env
    | Error e -> Alcotest.fail e
  in
  let envs = Array.init 101 (fun _ -> adopt ()) in
  let i = ref 0 in
  Alcotest.(check (float 0.0)) "Message.verify of a wire envelope: the digest and its option"
    (digest_words +. 2.0)
    (words_per_call (fun () ->
         ignore (Sys.opaque_identity (M.verify chains.(1) ~receiver:1 envs.(!i)));
         incr i))

let suite =
  [
    Alcotest.test_case "every length 0-300, random up to 5 KiB = reference" `Quick
      test_every_length;
    Alcotest.test_case "random chunking via update and update_bytes = reference" `Quick
      test_random_chunking;
    Alcotest.test_case "interleaved contexts and one-shots = reference" `Quick
      test_interleaved_contexts;
    Alcotest.test_case "digest_list = reference" `Quick test_digest_list;
    Alcotest.test_case "HMAC: RFC 4231 cases 4, 6, 7" `Quick test_rfc4231;
    Alcotest.test_case "HMAC: prepared = mac = reference, keys 0-131, suffixes" `Quick
      test_prepared_keys;
    Alcotest.test_case "alloc gate: HMAC verify 0 words, MAC only its tag" `Quick test_alloc_hmac;
    Alcotest.test_case "alloc gate: digests only their result" `Quick test_alloc_digest;
    Alcotest.test_case "alloc gate: Message.verify, shards 0 and 3" `Quick
      test_alloc_message_verify;
  ]
