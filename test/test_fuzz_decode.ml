(* Decode totality fuzzing: every byte string — random or a bit-flip away
   from a valid encoding — must come back from the decoders as a value or
   a typed error ([Result.Error] from [Message.decode_body], [Decode_error]
   from the XDR readers), never as an uncaught exception.  An exception
   here is a remote crash an attacker buys with one malformed packet, so
   this suite is the semantic backstop behind the E1 lint rule.
   Deterministic via [Base_util.Prng]; extends the byzantine-input suite. *)

module M = Base_bft.Message
module Xdr = Base_codec.Xdr
module Prng = Base_util.Prng
module Digest = Base_crypto.Digest_t

let decode_total ~what raw =
  match M.decode_body raw with
  | Ok _ | Error _ -> ()
  | exception e ->
    Alcotest.failf "%s: decode_body raised %s on %s" what (Printexc.to_string e)
      (Base_util.Hex.encode raw)

(* One sample per message constructor, so bit flips explore every decoder
   branch including the nested certificate lists. *)
let sample_bodies : M.body list =
  let d = Digest.of_string "fuzz" in
  let req =
    { M.client = 9; timestamp = 42L; operation = "op-payload"; read_only = false }
  in
  let pp =
    { M.view = 1; seq = 7; digest = d; requests = [ req; M.null_request ]; nondet = "nd" }
  in
  [
    M.Request req;
    M.Pre_prepare pp;
    M.Prepare { view = 1; seq = 7; digest = d; replica = 2 };
    M.Commit { view = 1; seq = 7; digest = d; replica = 3 };
    M.Reply { view = 1; timestamp = 42L; client = 9; replica = 0; result = "r" };
    M.Checkpoint { seq = 20; digest = d; replica = 1 };
    M.View_change
      {
        new_view = 2;
        last_stable = 10;
        stable_digest = d;
        prepared =
          [
            {
              pp_view = 1;
              pp_seq = 11;
              pp_digest = d;
              pp_requests = [ req ];
              pp_nondet = "n";
            };
          ];
        replica = 2;
      };
    M.New_view
      { nv_view = 2; nv_view_changes = [ (0, 10); (2, 10); (3, 8) ]; nv_pre_prepares = [ pp ] };
    M.Status { st_view = 2; st_last_exec = 15; st_h = 10; st_replica = 1 };
  ]

let test_decode_random_bytes () =
  let rng = Prng.create 0xF00DL in
  for i = 1 to 2_000 do
    let len = Prng.int rng 257 in
    let raw = Bytes.to_string (Prng.bytes rng len) in
    decode_total ~what:(Printf.sprintf "random #%d (len %d)" i len) raw
  done

let flip s i =
  let b = Bytes.of_string s in
  let byte = i / 8 in
  Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl (i mod 8))));
  Bytes.to_string b

let test_decode_bit_flips () =
  List.iter
    (fun body ->
      let valid = M.encode_body body in
      (* The valid encoding itself must round-trip... *)
      (match M.decode_body valid with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: valid encoding rejected: %s" (M.label body) e);
      (* ...and every single-bit corruption must fail *cleanly*. *)
      for i = 0 to (8 * String.length valid) - 1 do
        decode_total ~what:(Printf.sprintf "%s bit %d" (M.label body) i) (flip valid i)
      done;
      (* Truncations and extensions, for every prefix length. *)
      for n = 0 to String.length valid - 1 do
        decode_total ~what:(Printf.sprintf "%s truncated to %d" (M.label body) n)
          (String.sub valid 0 n)
      done;
      decode_total ~what:(M.label body ^ " with trailing junk") (valid ^ "\x01\x02\x03\x04"))
    sample_bodies

(* XDR readers: any outcome but a value or Decode_error is a bug. *)
let xdr_total ~what f =
  match f () with
  | _ -> ()
  | exception Xdr.Decode_error _ -> ()
  | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e)

let xdr_readers : (string * (Xdr.decoder -> unit)) list =
  [
    ("u32", fun d -> ignore (Xdr.read_u32 d));
    ("i64", fun d -> ignore (Xdr.read_i64 d));
    ("bool", fun d -> ignore (Xdr.read_bool d));
    ("opaque", fun d -> ignore (Xdr.read_opaque d));
    ("str", fun d -> ignore (Xdr.read_str d));
    ("list-u32", fun d -> ignore (Xdr.read_list d Xdr.read_u32));
    ("list-str", fun d -> ignore (Xdr.read_list d Xdr.read_str));
    ("option-i64", fun d -> ignore (Xdr.read_option d Xdr.read_i64));
    ( "record",
      fun d ->
        ignore (Xdr.read_u32 d);
        ignore (Xdr.read_str d);
        ignore (Xdr.read_bool d);
        Xdr.expect_end d );
  ]

let test_xdr_random_bytes () =
  let rng = Prng.create 0xBEEFL in
  for i = 1 to 1_000 do
    let len = Prng.int rng 129 in
    let raw = Bytes.to_string (Prng.bytes rng len) in
    List.iter
      (fun (name, reader) ->
        xdr_total
          ~what:(Printf.sprintf "xdr %s on random #%d (len %d)" name i len)
          (fun () -> reader (Xdr.decoder raw)))
      xdr_readers
  done

let test_xdr_bit_flips () =
  (* A structurally valid multi-field encoding, then every 1-bit
     corruption of it against every reader. *)
  let e = Xdr.encoder () in
  Xdr.u32 e 3;
  Xdr.str e "name";
  Xdr.bool e true;
  Xdr.list e Xdr.u32 [ 1; 2; 3 ];
  Xdr.option e Xdr.i64 (Some 99L);
  Xdr.opaque e "opaque-data";
  let valid = Xdr.contents e in
  for i = 0 to (8 * String.length valid) - 1 do
    let raw = flip valid i in
    List.iter
      (fun (name, reader) ->
        xdr_total
          ~what:(Printf.sprintf "xdr %s on bit-flip %d" name i)
          (fun () -> reader (Xdr.decoder raw)))
      xdr_readers
  done

(* Bounded allocation: a decoder must never allocate in proportion to a
   *claimed* length, only to the bytes actually present — a four-byte
   message claiming a 2^31-entry list must fail before allocating, not
   after.  This is the semantic property behind the taint backend's B1
   waiver for the decoder ([lib/codec/xdr.ml] in lint/allowlist.sexp):
   the waiver stands only while this test holds. *)
let alloc_bounded ~what ?(bound = 1_000_000.) f =
  let before = Gc.allocated_bytes () in
  (match f () with _ -> () | exception _ -> ());
  let allocated = Gc.allocated_bytes () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "%s: allocation bounded by input, got %.0f bytes" what allocated)
    true (allocated < bound)

let test_huge_length_claims_bounded_alloc () =
  (* Raw XDR readers on a tiny buffer whose only word claims a huge size. *)
  List.iter
    (fun claim ->
      let e = Xdr.encoder () in
      Xdr.u32 e claim;
      let raw = Xdr.contents e in
      List.iter
        (fun (name, reader) ->
          alloc_bounded
            ~what:(Printf.sprintf "xdr %s on length claim %d" name claim)
            (fun () -> reader (Xdr.decoder raw)))
        xdr_readers)
    [ 0x7FFF_FFFF; 0xFFF_FFFF; 1_000_000 ];
  (* The full message decoder: overwrite every aligned 32-bit word of each
     valid encoding with a huge value — this systematically hits every
     nested length/count prefix — and decode the still short buffer. *)
  List.iter
    (fun body ->
      let valid = Bytes.of_string (M.encode_body body) in
      for w = 0 to (Bytes.length valid / 4) - 1 do
        let saved = Bytes.get_int32_be valid (w * 4) in
        Bytes.set_int32_be valid (w * 4) 0x7FFF_FFFFl;
        alloc_bounded
          ~what:(Printf.sprintf "%s with word %d set to 2^31-1" (M.label body) w)
          (fun () -> M.decode_body (Bytes.to_string valid));
        Bytes.set_int32_be valid (w * 4) saved
      done)
    sample_bodies

(* Differential decode: the zero-copy slice readers against the verbatim
   pre-overhaul readers kept in [Xdr_ref].  On every input — random bytes,
   valid encodings, every 1-bit corruption of them — both must produce the
   identical value or the identical [Decode_error], so the overhaul cannot
   have changed what any wire input means. *)

type outcome = Value of string | Failed of string | Raised of string

let run_outcome show f =
  match f () with
  | v -> Value (show v)
  | exception Xdr.Decode_error e -> Failed e
  | exception e -> Raised (Printexc.to_string e)

let show_outcome = function
  | Value v -> "value " ^ v
  | Failed e -> "Decode_error " ^ e
  | Raised e -> "raised " ^ e

(* Each probe reads a value with the new reader and with the reference
   reader and renders it to a comparable string; [remaining] is folded in
   so cursor positions are compared too, not just values. *)
let diff_probes :
    (string * (Xdr.decoder -> string) * (Xdr_ref.decoder -> string)) list =
  let shown to_s rem v = Printf.sprintf "%s/rem=%d" (to_s v) rem in
  let str_list l = String.concat ";" l in
  [
    ( "u32",
      (fun d -> shown string_of_int (Xdr.remaining d) (Xdr.read_u32 d)),
      fun d -> shown string_of_int (Xdr_ref.remaining d) (Xdr_ref.read_u32 d) );
    ( "i64",
      (fun d -> shown Int64.to_string (Xdr.remaining d) (Xdr.read_i64 d)),
      fun d -> shown Int64.to_string (Xdr_ref.remaining d) (Xdr_ref.read_i64 d) );
    ( "bool",
      (fun d -> shown string_of_bool (Xdr.remaining d) (Xdr.read_bool d)),
      fun d -> shown string_of_bool (Xdr_ref.remaining d) (Xdr_ref.read_bool d) );
    ( "opaque",
      (fun d -> shown Fun.id (Xdr.remaining d) (Xdr.read_opaque d)),
      fun d -> shown Fun.id (Xdr_ref.remaining d) (Xdr_ref.read_opaque d) );
    ( "view",
      (* read_view is wire-compatible with read_opaque: same bytes, same
         cursor, no copy — compared against the reference copying reader. *)
      (fun d -> shown Fun.id (Xdr.remaining d) (Xdr.view_to_string (Xdr.read_view d))),
      fun d -> shown Fun.id (Xdr_ref.remaining d) (Xdr_ref.read_opaque d) );
    ( "list-str",
      (fun d -> shown str_list (Xdr.remaining d) (Xdr.read_list d Xdr.read_str)),
      fun d ->
        shown str_list (Xdr_ref.remaining d) (Xdr_ref.read_list d Xdr_ref.read_str) );
    ( "option-i64",
      (fun d ->
        shown
          (function None -> "none" | Some v -> Int64.to_string v)
          (Xdr.remaining d)
          (Xdr.read_option d Xdr.read_i64)),
      fun d ->
        shown
          (function None -> "none" | Some v -> Int64.to_string v)
          (Xdr_ref.remaining d)
          (Xdr_ref.read_option d Xdr_ref.read_i64) );
    ( "record-end",
      (fun d ->
        let a = Xdr.read_u32 d in
        let b = Xdr.read_str d in
        Xdr.expect_end d;
        Printf.sprintf "%d:%s" a b),
      fun d ->
        let a = Xdr_ref.read_u32 d in
        let b = Xdr_ref.read_str d in
        Xdr_ref.expect_end d;
        Printf.sprintf "%d:%s" a b );
  ]

let diff_one ~what raw =
  List.iter
    (fun (name, new_read, ref_read) ->
      let got = run_outcome Fun.id (fun () -> new_read (Xdr.decoder raw)) in
      let want = run_outcome Fun.id (fun () -> ref_read (Xdr_ref.decoder raw)) in
      (match got with
      | Raised e -> Alcotest.failf "%s %s: slice reader raised %s" what name e
      | Value _ | Failed _ -> ());
      if got <> want then
        Alcotest.failf "%s %s: slice reader %s, reference reader %s" what name
          (show_outcome got) (show_outcome want))
    diff_probes

let test_ref_differential_random () =
  let rng = Prng.create 0xD1FFL in
  for i = 1 to 1_500 do
    let len = Prng.int rng 129 in
    let raw = Bytes.to_string (Prng.bytes rng len) in
    diff_one ~what:(Printf.sprintf "random #%d (len %d)" i len) raw
  done

let test_ref_differential_structured () =
  (* A valid multi-field encoding, then every 1-bit corruption, every
     truncation and a trailing extension — the same input family the
     totality test uses, now required to agree with the oracle. *)
  let e = Xdr.encoder () in
  Xdr.u32 e 7;
  Xdr.str e "differential";
  Xdr.bool e false;
  Xdr.list e Xdr.str [ "a"; ""; "long-enough-to-pad" ];
  Xdr.option e Xdr.i64 (Some (-1L));
  Xdr.opaque e "tail";
  let valid = Xdr.contents e in
  diff_one ~what:"valid encoding" valid;
  for i = 0 to (8 * String.length valid) - 1 do
    diff_one ~what:(Printf.sprintf "bit-flip %d" i) (flip valid i)
  done;
  for n = 0 to String.length valid - 1 do
    diff_one ~what:(Printf.sprintf "truncated to %d" n) (String.sub valid 0 n)
  done;
  diff_one ~what:"trailing junk" (valid ^ "\x01")

(* The point of the slice readers: walking a message through views must not
   allocate in proportion to the payload.  A 256 KiB opaque field is read
   as a view with O(1) allocation, where the materialising reader pays the
   full copy. *)
let test_view_path_allocation () =
  let payload = String.make 262_144 'x' in
  let e = Xdr.encoder () in
  Xdr.u32 e 1;
  Xdr.opaque e payload;
  let raw = Xdr.contents e in
  let view_path () =
    let d = Xdr.decoder raw in
    ignore (Xdr.read_u32 d);
    let v = Xdr.read_view d in
    Alcotest.(check bool) "view matches payload" true (Xdr.view_equal_string v payload)
  in
  let copy_path () =
    let d = Xdr.decoder raw in
    ignore (Xdr.read_u32 d);
    Alcotest.(check bool) "opaque matches payload" true
      (String.equal (Xdr.read_opaque d) payload)
  in
  (* Warm up so neither measurement pays one-time setup. *)
  view_path ();
  copy_path ();
  let measure f =
    let before = Gc.allocated_bytes () in
    f ();
    Gc.allocated_bytes () -. before
  in
  let view_alloc = measure view_path in
  let copy_alloc = measure copy_path in
  Alcotest.(check bool)
    (Printf.sprintf "view path allocates O(1), got %.0f bytes" view_alloc)
    true
    (view_alloc < 4_096.);
  Alcotest.(check bool)
    (Printf.sprintf "copy path pays the payload, got %.0f bytes" copy_alloc)
    true
    (copy_alloc >= float_of_int (String.length payload))

let suite =
  [
    Alcotest.test_case "decode_body: random bytes are total" `Quick
      test_decode_random_bytes;
    Alcotest.test_case "decoders: huge length claims allocate O(input)" `Quick
      test_huge_length_claims_bounded_alloc;
    Alcotest.test_case "decode_body: bit flips / truncation are total" `Quick
      test_decode_bit_flips;
    Alcotest.test_case "xdr readers: random bytes are total" `Quick
      test_xdr_random_bytes;
    Alcotest.test_case "xdr readers: bit flips are total" `Quick test_xdr_bit_flips;
    Alcotest.test_case "xdr slice readers = reference readers (random)" `Quick
      test_ref_differential_random;
    Alcotest.test_case "xdr slice readers = reference readers (structured)" `Quick
      test_ref_differential_structured;
    Alcotest.test_case "view path allocates O(1)" `Quick test_view_path_allocation;
  ]
