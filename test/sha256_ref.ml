(* The pre-overhaul SHA-256, verbatim apart from this comment: 32-bit words
   represented as OCaml ints (63-bit), masked to 32 bits after each
   operation, the compression function following FIPS 180-4 section 6.2.2
   directly.  The oracle of the differential crypto suite
   (test_sha256_diff.ml): {!Base_crypto.Sha256} must produce identical
   digests on every input, split every way, while allocating nothing but
   its results. *)

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

type ctx = {
  h : int array; (* 8 state words *)
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int64; (* bytes processed *)
  w : int array; (* message schedule scratch *)
}

let mask = 0xffffffff

let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask

let init () =
  {
    h =
      [|
        0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
        0x1f83d9ab; 0x5be0cd19;
      |];
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0L;
    w = Array.make 64 0;
  }

(* The inner loops run once per 64 input bytes on every digest and MAC in
   the system, so they use unsafe array/byte accesses; the single bounds
   check below is the only one per block.  Indices into [w]/[k] are loop
   constants in [0, 63], and the block slice is checked on entry. *)
let compress ctx block pos =
  Base_util.Invariant.require
    (pos >= 0 && pos + 64 <= Bytes.length block)
    "Sha256.compress: block out of bounds";
  let w = ctx.w in
  for t = 0 to 15 do
    let j = pos + (4 * t) in
    Array.unsafe_set w t
      ((Char.code (Bytes.unsafe_get block j) lsl 24)
      lor (Char.code (Bytes.unsafe_get block (j + 1)) lsl 16)
      lor (Char.code (Bytes.unsafe_get block (j + 2)) lsl 8)
      lor Char.code (Bytes.unsafe_get block (j + 3)))
  done;
  for t = 16 to 63 do
    let w15 = Array.unsafe_get w (t - 15) and w2 = Array.unsafe_get w (t - 2) in
    let s0 = rotr w15 7 lxor rotr w15 18 lxor (w15 lsr 3) in
    let s1 = rotr w2 17 lxor rotr w2 19 lxor (w2 lsr 10) in
    Array.unsafe_set w t
      ((Array.unsafe_get w (t - 16) + s0 + Array.unsafe_get w (t - 7) + s1) land mask)
  done;
  let h = ctx.h in
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for t = 0 to 63 do
    let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
    let ch = (!e land !f) lxor (lnot !e land !g) land mask in
    let t1 =
      (!hh + s1 + ch + Array.unsafe_get k t + Array.unsafe_get w t) land mask
    in
    let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
    let maj = (!a land !b) lxor (!a land !c) lxor (!b land !c) in
    let t2 = (s0 + maj) land mask in
    hh := !g;
    g := !f;
    f := !e;
    e := (!d + t1) land mask;
    d := !c;
    c := !b;
    b := !a;
    a := (t1 + t2) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

let update_bytes ctx data ~pos ~len =
  ctx.total <- Int64.add ctx.total (Int64.of_int len);
  let pos = ref pos and remaining = ref len in
  (* Fill a partially filled block buffer first. *)
  if ctx.buf_len > 0 then begin
    let take = min !remaining (64 - ctx.buf_len) in
    Bytes.blit data !pos ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while !remaining >= 64 do
    compress ctx data !pos;
    pos := !pos + 64;
    remaining := !remaining - 64
  done;
  if !remaining > 0 then begin
    Bytes.blit data !pos ctx.buf 0 !remaining;
    ctx.buf_len <- !remaining
  end

let update ctx s = update_bytes ctx (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

(* Midstate cloning: lets a fixed prefix (e.g. an HMAC key pad block) be
   compressed once and reused for every message hashed under it.  The
   scratch schedule [w] is per-use state, so the copy gets its own. *)
let copy ctx =
  {
    h = Array.copy ctx.h;
    buf = Bytes.copy ctx.buf;
    buf_len = ctx.buf_len;
    total = ctx.total;
    w = Array.make 64 0;
  }

let finalize ctx =
  let bit_len = Int64.mul ctx.total 8L in
  (* Padding: 0x80, zeros, 64-bit big-endian length. *)
  let pad_len =
    let rem = Int64.to_int (Int64.rem ctx.total 64L) in
    if rem < 56 then 56 - rem else 120 - rem
  in
  let pad = Bytes.make (pad_len + 8) '\000' in
  Bytes.set pad 0 '\x80';
  for i = 0 to 7 do
    Bytes.set pad (pad_len + i)
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical bit_len (8 * (7 - i))) 0xffL)))
  done;
  (* Bypass the total counter: padding is not message data. *)
  let saved = ctx.total in
  update_bytes ctx pad ~pos:0 ~len:(Bytes.length pad);
  ctx.total <- saved;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    let v = ctx.h.(i) in
    Bytes.set out (4 * i) (Char.chr ((v lsr 24) land 0xff));
    Bytes.set out ((4 * i) + 1) (Char.chr ((v lsr 16) land 0xff));
    Bytes.set out ((4 * i) + 2) (Char.chr ((v lsr 8) land 0xff));
    Bytes.set out ((4 * i) + 3) (Char.chr (v land 0xff))
  done;
  Bytes.unsafe_to_string out

let digest s =
  let ctx = init () in
  update ctx s;
  finalize ctx

let digest_list ss =
  let ctx = init () in
  List.iter (update ctx) ss;
  finalize ctx

let hex s = Base_util.Hex.encode (digest s)

(* The pre-overhaul two-pass HMAC-SHA256 (RFC 2104) over this hash. *)
let hmac ~key msg =
  let key = if String.length key > 64 then digest key else key in
  let key = key ^ String.make (64 - String.length key) '\000' in
  let pad c = String.map (fun k -> Char.chr (Char.code k lxor c)) key in
  digest_list [ pad 0x5c; digest_list [ pad 0x36; msg ] ]
