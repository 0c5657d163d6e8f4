exception Decode_error of string

(* --- encoding --------------------------------------------------------------

   The encoder writes straight into a growable [Bytes.t].  Buffer.add_char
   per byte (the previous implementation, kept under {!Ref}) pays a bounds
   check and a capacity check per character; sealing hashes and MACs every
   protocol message, so encode cost is pure hot-path overhead.  All stores
   below go through [Bytes.unsafe_set] only after [ensure] has established
   capacity. *)

type encoder = { mutable buf : Bytes.t; mutable len : int }

let encoder () = { buf = Bytes.create 256; len = 0 }

let ensure e n =
  let cap = Bytes.length e.buf in
  if e.len + n > cap then begin
    let new_cap = ref (if cap = 0 then 256 else 2 * cap) in
    while e.len + n > !new_cap do
      new_cap := 2 * !new_cap
    done;
    let b = Bytes.create !new_cap in
    Bytes.blit e.buf 0 b 0 e.len;
    e.buf <- b
  end

let u32 e v =
  Base_util.Invariant.require (v >= 0 && v <= 0xffffffff) "Xdr.u32: out of range";
  ensure e 4;
  let p = e.len in
  Bytes.unsafe_set e.buf p (Char.unsafe_chr ((v lsr 24) land 0xff));
  Bytes.unsafe_set e.buf (p + 1) (Char.unsafe_chr ((v lsr 16) land 0xff));
  Bytes.unsafe_set e.buf (p + 2) (Char.unsafe_chr ((v lsr 8) land 0xff));
  Bytes.unsafe_set e.buf (p + 3) (Char.unsafe_chr (v land 0xff));
  e.len <- p + 4

let i64 e v =
  ensure e 8;
  Bytes.set_int64_be e.buf e.len v;
  e.len <- e.len + 8

let bool e b = u32 e (if b then 1 else 0)

let pad_len n = (4 - (n mod 4)) mod 4

let opaque e s =
  let n = String.length s in
  let pad = pad_len n in
  u32 e n;
  ensure e (n + pad);
  Bytes.blit_string s 0 e.buf e.len n;
  for i = 0 to pad - 1 do
    Bytes.unsafe_set e.buf (e.len + n + i) '\000'
  done;
  e.len <- e.len + n + pad

let str = opaque

let list e enc xs =
  u32 e (List.length xs);
  List.iter (enc e) xs

let option e enc = function
  | None -> u32 e 0
  | Some x ->
    u32 e 1;
    enc e x

let contents e = Bytes.sub_string e.buf 0 e.len

(* --- decoding --------------------------------------------------------------

   A decoder is a cursor over a [pos, limit) slice of a backing string, so
   nested structures decode in place: {!read_view} yields the coordinates
   of an opaque field without copying it, and {!view_decoder} recurses into
   one without [String.sub].  {!read_opaque} still materialises an owned
   string for callers that store the field. *)

type decoder = { data : string; mutable pos : int; limit : int }

let decoder ?(pos = 0) ?len data =
  let limit = match len with Some l -> pos + l | None -> String.length data in
  Base_util.Invariant.require
    (pos >= 0 && limit <= String.length data && pos <= limit)
    "Xdr.decoder: slice out of bounds";
  { data; pos; limit }

let need d n = if n < 0 || d.pos + n > d.limit then raise (Decode_error "truncated input")

let read_u32 d =
  need d 4;
  let b i = Char.code (String.unsafe_get d.data (d.pos + i)) in
  let v = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
  d.pos <- d.pos + 4;
  v

let read_i64 d =
  need d 8;
  let v = ref 0L in
  for i = 0 to 7 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code (String.unsafe_get d.data (d.pos + i))))
  done;
  d.pos <- d.pos + 8;
  !v

let read_bool d =
  match read_u32 d with
  | 0 -> false
  | 1 -> true
  | n -> raise (Decode_error (Printf.sprintf "bad bool discriminant %d" n))

type view = { view_base : string; view_pos : int; view_len : int }

let read_view d =
  let len = read_u32 d in
  need d (len + pad_len len);
  let v = { view_base = d.data; view_pos = d.pos; view_len = len } in
  d.pos <- d.pos + len + pad_len len;
  v

let view_to_string v = String.sub v.view_base v.view_pos v.view_len

let view_decoder v = { data = v.view_base; pos = v.view_pos; limit = v.view_pos + v.view_len }

let view_equal_string v s =
  String.length s = v.view_len
  &&
  let rec eq i =
    i >= v.view_len
    || (String.unsafe_get v.view_base (v.view_pos + i) = String.unsafe_get s i && eq (i + 1))
  in
  eq 0

let read_opaque d = view_to_string (read_view d)

let read_str = read_opaque

let read_list d dec =
  let n = read_u32 d in
  if n > d.limit - d.pos then raise (Decode_error "implausible list length");
  List.init n (fun _ -> dec d)

let read_option d dec =
  match read_u32 d with
  | 0 -> None
  | 1 -> Some (dec d)
  | n -> raise (Decode_error (Printf.sprintf "bad option discriminant %d" n))

let expect_end d = if d.pos <> d.limit then raise (Decode_error "trailing bytes")

let remaining d = d.limit - d.pos
