(* SHA-256 (FIPS 180-4 section 6.2.2) over 32-bit words held in OCaml's
   63-bit ints.  Every digest and MAC in the system runs through [compress],
   so the kernel is written to allocate nothing:

   - a rotation reads a *doubled* word, [x lor (x lsl 32)], shifted right:
     for a 32-bit [x] and a count n <= 31 (all SHA-256 uses), bits n..n+31
     of the doubled word are [rotr x n], and the 63-bit int holds them all;
   - the eight working variables are the arguments of the tail-recursive
     [rounds], so they live in registers instead of eight [ref] cells;
   - the message schedule is one module-level array, filled and consumed
     within a single [compress] call;
   - [finalize] pads in place in the context's block buffer, and the
     one-shot [digest]/[digest_list] run in a shared scratch context. *)

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

let iv =
  [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |]

type ctx = {
  h : int array; (* 8 chaining words *)
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int; (* bytes hashed so far *)
}

type midstate = int array

let mask = 0xffffffff

let init () = { h = Array.copy iv; buf = Bytes.create 64; buf_len = 0; total = 0 }

(* The message schedule.  Shared by every context: [compress] fills it and
   consumes it before returning, so no two blocks ever hold it at once. *)
let w = Array.make 64 0

(* Round functions.  A rotation reads the doubled word (see above); [ch]
   and [maj] are the usual 3- and 4-operation forms of FIPS's expressions. *)
let[@inline] big_sigma0 a =
  let a2 = a lor (a lsl 32) in
  ((a2 lsr 2) lxor (a2 lsr 13) lxor (a2 lsr 22)) land mask

let[@inline] big_sigma1 e =
  let e2 = e lor (e lsl 32) in
  ((e2 lsr 6) lxor (e2 lsr 11) lxor (e2 lsr 25)) land mask

let[@inline] ch e f g = g lxor (e land (f lxor g))

let[@inline] maj a b c = (a land b) lor (c land (a lor b))

let[@inline] kw t = Array.unsafe_get k t + Array.unsafe_get w t

(* The inner loops run once per 64 input bytes on every digest and MAC in
   the system, so they use unsafe array/byte accesses; the single bounds
   check in [compress] is the only one per block.  Indices into [w]/[k] are
   in [0, 63] by construction.

   One call runs eight rounds.  A round turns (a, b, c, d, e, f, g, h) into
   (T1 + T2, a, b, c, d + T1, e, f, g).  Rather than shifting eight names
   along, each round below rebinds only two: the new first word takes the
   name of the word that drops out (h), the new fifth word takes d's.  The
   roles move one name per round, so after eight rounds every word is back
   under its starting name. *)
let rec rounds st t a b c d e f g h =
  if t = 64 then begin
    Array.unsafe_set st 0 ((Array.unsafe_get st 0 + a) land mask);
    Array.unsafe_set st 1 ((Array.unsafe_get st 1 + b) land mask);
    Array.unsafe_set st 2 ((Array.unsafe_get st 2 + c) land mask);
    Array.unsafe_set st 3 ((Array.unsafe_get st 3 + d) land mask);
    Array.unsafe_set st 4 ((Array.unsafe_get st 4 + e) land mask);
    Array.unsafe_set st 5 ((Array.unsafe_get st 5 + f) land mask);
    Array.unsafe_set st 6 ((Array.unsafe_get st 6 + g) land mask);
    Array.unsafe_set st 7 ((Array.unsafe_get st 7 + h) land mask)
  end
  else begin
    let t1 = h + big_sigma1 e + ch e f g + kw t in
    let d = (d + t1) land mask and h = (t1 + big_sigma0 a + maj a b c) land mask in
    let t1 = g + big_sigma1 d + ch d e f + kw (t + 1) in
    let c = (c + t1) land mask and g = (t1 + big_sigma0 h + maj h a b) land mask in
    let t1 = f + big_sigma1 c + ch c d e + kw (t + 2) in
    let b = (b + t1) land mask and f = (t1 + big_sigma0 g + maj g h a) land mask in
    let t1 = e + big_sigma1 b + ch b c d + kw (t + 3) in
    let a = (a + t1) land mask and e = (t1 + big_sigma0 f + maj f g h) land mask in
    let t1 = d + big_sigma1 a + ch a b c + kw (t + 4) in
    let h = (h + t1) land mask and d = (t1 + big_sigma0 e + maj e f g) land mask in
    let t1 = c + big_sigma1 h + ch h a b + kw (t + 5) in
    let g = (g + t1) land mask and c = (t1 + big_sigma0 d + maj d e f) land mask in
    let t1 = b + big_sigma1 g + ch g h a + kw (t + 6) in
    let f = (f + t1) land mask and b = (t1 + big_sigma0 c + maj c d e) land mask in
    let t1 = a + big_sigma1 f + ch f g h + kw (t + 7) in
    let e = (e + t1) land mask and a = (t1 + big_sigma0 b + maj b c d) land mask in
    rounds st (t + 8) a b c d e f g h
  end

let compress h block pos =
  Base_util.Invariant.require
    (pos >= 0 && pos + 64 <= Bytes.length block)
    "Sha256.compress: block out of bounds";
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
    let d15 = w15 lor (w15 lsl 32) and d2 = w2 lor (w2 lsl 32) in
    let s0 = (((d15 lsr 7) lxor (d15 lsr 18)) land mask) lxor (w15 lsr 3) in
    let s1 = (((d2 lsr 17) lxor (d2 lsr 19)) land mask) lxor (w2 lsr 10) in
    Array.unsafe_set w t
      ((Array.unsafe_get w (t - 16) + s0 + Array.unsafe_get w (t - 7) + s1) land mask)
  done;
  rounds h 0 h.(0) h.(1) h.(2) h.(3) h.(4) h.(5) h.(6) h.(7)

let update_bytes ctx data ~pos ~len =
  ctx.total <- ctx.total + len;
  let pos = ref pos and remaining = ref len in
  (* Fill a partially filled block buffer first. *)
  if ctx.buf_len > 0 then begin
    let take = if !remaining < 64 - ctx.buf_len then !remaining else 64 - ctx.buf_len in
    Bytes.blit data !pos ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if ctx.buf_len = 64 then begin
      compress ctx.h ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while !remaining >= 64 do
    compress ctx.h data !pos;
    pos := !pos + 64;
    remaining := !remaining - 64
  done;
  if !remaining > 0 then begin
    Bytes.blit data !pos ctx.buf 0 !remaining;
    ctx.buf_len <- !remaining
  end

let update ctx s = update_bytes ctx (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

(* Padding, in place: 0x80, zeros, the 64-bit big-endian bit length — in
   one block, or two when fewer than 9 bytes of the last one are free. *)
let pad ctx =
  let buf = ctx.buf and n = ctx.buf_len in
  Bytes.set buf n '\x80';
  if n >= 56 then begin
    Bytes.fill buf (n + 1) (63 - n) '\000';
    compress ctx.h buf 0;
    Bytes.fill buf 0 56 '\000'
  end
  else Bytes.fill buf (n + 1) (55 - n) '\000';
  let bits = ctx.total lsl 3 in
  for i = 0 to 7 do
    Bytes.unsafe_set buf (56 + i) (Char.unsafe_chr ((bits lsr (8 * (7 - i))) land 0xff))
  done;
  compress ctx.h buf 0;
  ctx.buf_len <- 0

let finalize_into ctx out =
  Base_util.Invariant.require (Bytes.length out >= 32) "Sha256.finalize_into: output too short";
  pad ctx;
  for i = 0 to 7 do
    let v = Array.unsafe_get ctx.h i and j = 4 * i in
    Bytes.unsafe_set out j (Char.unsafe_chr (v lsr 24));
    Bytes.unsafe_set out (j + 1) (Char.unsafe_chr ((v lsr 16) land 0xff));
    Bytes.unsafe_set out (j + 2) (Char.unsafe_chr ((v lsr 8) land 0xff));
    Bytes.unsafe_set out (j + 3) (Char.unsafe_chr (v land 0xff))
  done

let finalize ctx =
  let out = Bytes.create 32 in
  finalize_into ctx out;
  Bytes.unsafe_to_string out

(* The shared context behind the one-shot digests and [resume]. *)
let scratch = init ()

let restart state ~total =
  Array.blit state 0 scratch.h 0 8;
  scratch.buf_len <- 0;
  scratch.total <- total;
  scratch

let digest s =
  let ctx = restart iv ~total:0 in
  update ctx s;
  finalize ctx

let rec update_all ctx = function
  | [] -> ()
  | s :: rest ->
    update ctx s;
    update_all ctx rest

let digest_list ss =
  let ctx = restart iv ~total:0 in
  update_all ctx ss;
  finalize ctx

let block_midstate block =
  Base_util.Invariant.require (String.length block = 64) "Sha256.block_midstate: not one block";
  let h = Array.copy iv in
  compress h (Bytes.unsafe_of_string block) 0;
  h

let resume m = restart m ~total:64

let hex s = Base_util.Hex.encode (digest s)
