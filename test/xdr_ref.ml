(* The pre-overhaul XDR readers, verbatim: a [Buffer]-style cursor over the
   whole backing string with a [String.sub] per opaque field.  The oracle of
   the differential fuzz suite (test_fuzz_decode.ml): the slice readers of
   {!Base_codec.Xdr} must produce identical values and identical typed
   errors on every input, while allocating strictly less. *)

exception Decode_error = Base_codec.Xdr.Decode_error

let pad_len n = (4 - (n mod 4)) mod 4

type decoder = { data : string; mutable pos : int }

let decoder data = { data; pos = 0 }

let need d n =
  if n < 0 || d.pos + n > String.length d.data then raise (Decode_error "truncated input")

let read_u32 d =
  need d 4;
  let b i = Char.code d.data.[d.pos + i] in
  let v = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
  d.pos <- d.pos + 4;
  v

let read_i64 d =
  need d 8;
  let v = ref 0L in
  for i = 0 to 7 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code d.data.[d.pos + i]))
  done;
  d.pos <- d.pos + 8;
  !v

let read_bool d =
  match read_u32 d with
  | 0 -> false
  | 1 -> true
  | n -> raise (Decode_error (Printf.sprintf "bad bool discriminant %d" n))

let read_opaque d =
  let len = read_u32 d in
  need d (len + pad_len len);
  let s = String.sub d.data d.pos len in
  d.pos <- d.pos + len + pad_len len;
  s

let read_str = read_opaque

let read_list d dec =
  let n = read_u32 d in
  if n > String.length d.data - d.pos then raise (Decode_error "implausible list length");
  List.init n (fun _ -> dec d)

let read_option d dec =
  match read_u32 d with
  | 0 -> None
  | 1 -> Some (dec d)
  | n -> raise (Decode_error (Printf.sprintf "bad option discriminant %d" n))

let expect_end d = if d.pos <> String.length d.data then raise (Decode_error "trailing bytes")

let remaining d = String.length d.data - d.pos
