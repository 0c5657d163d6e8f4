(* Host-time spans for the traced run.

   The benchmark wraps the records it hands to the library (the service
   wrapper, every file-system implementation) and the engine steps it drives
   itself; each wrapped call becomes a span with a name, start, end, parent
   and — where the operation carries one — the arrival index as request id.
   Spans stay in flat arrays while the run is timed and are written out only
   when it ends.  Self time is a span's duration minus its children's, so
   the self times of all spans add up exactly to the root spans' total:
   the accounting identity [trace.self_sum_ratio] checks. *)

module Service = Base_core.Service
module S = Base_fs.Server_intf

type t = {
  mutable on : bool;
  ids : (string, int) Hashtbl.t;
  mutable names : string array;
  mutable name : int array;
  mutable t0 : int array;
  mutable t1 : int array;
  mutable parent : int array;
  mutable req : int array;
  mutable n : int;
  mutable cur : int;  (* innermost open span, -1 at top level *)
  counters : (string, int ref) Hashtbl.t;
}

let now () = Int64.to_int (Monotonic_clock.now ())

let create () =
  let cap = 1 lsl 16 in
  {
    on = false;
    ids = Hashtbl.create 64;
    names = [||];
    name = Array.make cap 0;
    t0 = Array.make cap 0;
    t1 = Array.make cap 0;
    parent = Array.make cap 0;
    req = Array.make cap 0;
    n = 0;
    cur = -1;
    counters = Hashtbl.create 16;
  }

let start t = t.on <- true

let stop t = t.on <- false

let id t name =
  match Hashtbl.find_opt t.ids name with
  | Some i -> i
  | None ->
    let i = Array.length t.names in
    t.names <- Array.append t.names [| name |];
    Hashtbl.add t.ids name i;
    i

let grow t =
  let cap = 2 * Array.length t.name in
  let ext a =
    let b = Array.make cap 0 in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.name <- ext t.name;
  t.t0 <- ext t.t0;
  t.t1 <- ext t.t1;
  t.parent <- ext t.parent;
  t.req <- ext t.req

let enter t nid req =
  if not t.on then -1
  else begin
    if t.n = Array.length t.name then grow t;
    let i = t.n in
    t.n <- i + 1;
    t.name.(i) <- nid;
    t.parent.(i) <- t.cur;
    t.req.(i) <- req;
    t.cur <- i;
    t.t0.(i) <- now ();
    i
  end

let leave t i =
  if i >= 0 then begin
    t.t1.(i) <- now ();
    t.cur <- t.parent.(i)
  end

let span t nid ?(req = -1) f =
  let i = enter t nid req in
  match f () with
  | v ->
    leave t i;
    v
  | exception e ->
    leave t i;
    raise e

let count t name by =
  if t.on then
    match Hashtbl.find_opt t.counters name with
    | Some r -> r := !r + by
    | None -> Hashtbl.add t.counters name (ref by)

let counter t name = match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

(* The arrival index a kv write carries in its value ("set:3:v1207"). *)
let req_of_operation op =
  match String.rindex_opt op 'v' with
  | Some k when k > 0 && op.[k - 1] = ':' -> (
    match int_of_string_opt (String.sub op (k + 1) (String.length op - k - 1)) with
    | Some r -> r
    | None -> -1)
  | _ -> -1

let wrap_service t (w : Service.wrapper) : Service.wrapper =
  let n_exec = id t "service.execute"
  and n_modify = id t "service.modify"
  and n_get = id t "service.get_obj"
  and n_put = id t "service.put_objs"
  and n_restart = id t "service.restart"
  and n_propose = id t "service.propose_nondet"
  and n_check = id t "service.check_nondet"
  and n_oids = id t "service.oids_of_op" in
  {
    w with
    Service.execute =
      (fun ~client ~operation ~nondet ~read_only ~modify ->
        let req = req_of_operation operation in
        let modify i = span t n_modify ~req (fun () -> modify i) in
        span t n_exec ~req (fun () -> w.Service.execute ~client ~operation ~nondet ~read_only ~modify));
    get_obj =
      (fun i ->
        span t n_get (fun () ->
            let v = w.Service.get_obj i in
            count t "service.get_obj.bytes" (String.length v);
            v));
    put_objs =
      (fun objs ->
        count t "service.put_objs.objs" (List.length objs);
        span t n_put (fun () -> w.Service.put_objs objs));
    restart = (fun () -> span t n_restart w.Service.restart);
    propose_nondet =
      (fun ~clock_us ~operation ->
        span t n_propose (fun () -> w.Service.propose_nondet ~clock_us ~operation));
    check_nondet =
      (fun ~clock_us ~operation ~nondet ->
        span t n_check (fun () -> w.Service.check_nondet ~clock_us ~operation ~nondet));
    oids_of_op = (fun ~operation -> span t n_oids (fun () -> w.Service.oids_of_op ~operation));
  }

let wrap_fs t ~impl (s : S.t) : S.t =
  let n op = id t (Printf.sprintf "fs.%s.%s" impl op) in
  let n_root = n "root" and n_lookup = n "lookup" and n_getattr = n "getattr"
  and n_setattr = n "setattr" and n_read = n "read" and n_write = n "write"
  and n_create = n "create" and n_mkdir = n "mkdir" and n_symlink = n "symlink"
  and n_readlink = n "readlink" and n_remove = n "remove" and n_rmdir = n "rmdir"
  and n_rename = n "rename" and n_readdir = n "readdir" and n_identity = n "identity"
  and n_restart = n "restart" and n_corrupt = n "corrupt" and n_poison = n "set_poison" in
  {
    s with
    S.root = (fun () -> span t n_root s.S.root);
    lookup = (fun ~dir ~name -> span t n_lookup (fun () -> s.S.lookup ~dir ~name));
    getattr = (fun ~fh -> span t n_getattr (fun () -> s.S.getattr ~fh));
    setattr = (fun ~fh a -> span t n_setattr (fun () -> s.S.setattr ~fh a));
    read = (fun ~fh ~off ~count -> span t n_read (fun () -> s.S.read ~fh ~off ~count));
    write = (fun ~fh ~off ~data -> span t n_write (fun () -> s.S.write ~fh ~off ~data));
    create =
      (fun ~dir ~name ~mode ~uid ~gid ->
        span t n_create (fun () -> s.S.create ~dir ~name ~mode ~uid ~gid));
    mkdir =
      (fun ~dir ~name ~mode ~uid ~gid ->
        span t n_mkdir (fun () -> s.S.mkdir ~dir ~name ~mode ~uid ~gid));
    symlink =
      (fun ~dir ~name ~target ~mode ~uid ~gid ->
        span t n_symlink (fun () -> s.S.symlink ~dir ~name ~target ~mode ~uid ~gid));
    readlink = (fun ~fh -> span t n_readlink (fun () -> s.S.readlink ~fh));
    remove = (fun ~dir ~name -> span t n_remove (fun () -> s.S.remove ~dir ~name));
    rmdir = (fun ~dir ~name -> span t n_rmdir (fun () -> s.S.rmdir ~dir ~name));
    rename =
      (fun ~sdir ~sname ~ddir ~dname ->
        span t n_rename (fun () -> s.S.rename ~sdir ~sname ~ddir ~dname));
    readdir = (fun ~dir -> span t n_readdir (fun () -> s.S.readdir ~dir));
    identity = (fun ~fh -> span t n_identity (fun () -> s.S.identity ~fh));
    restart = (fun () -> span t n_restart s.S.restart);
    corrupt = (fun ~prng ~count -> span t n_corrupt (fun () -> s.S.corrupt ~prng ~count));
    set_poison = (fun p -> span t n_poison (fun () -> s.S.set_poison p));
  }

(* Per-name totals: calls and self ns. *)
type totals = { calls : int; self_ns : int }

let totals t =
  let k = Array.length t.names in
  let calls = Array.make k 0 and child = Array.make t.n 0 in
  for i = 0 to t.n - 1 do
    let d = t.t1.(i) - t.t0.(i) in
    calls.(t.name.(i)) <- calls.(t.name.(i)) + 1;
    let p = t.parent.(i) in
    if p >= 0 then child.(p) <- child.(p) + d
  done;
  let self = Array.make k 0 in
  for i = 0 to t.n - 1 do
    self.(t.name.(i)) <- self.(t.name.(i)) + (t.t1.(i) - t.t0.(i) - child.(i))
  done;
  Array.to_list
    (Array.mapi (fun j name -> (name, { calls = calls.(j); self_ns = self.(j) }))
       t.names)

(* Sum of top-level span durations: the traced host time the self times
   must add up to. *)
let root_ns t =
  let s = ref 0 in
  for i = 0 to t.n - 1 do
    if t.parent.(i) < 0 then s := !s + (t.t1.(i) - t.t0.(i))
  done;
  !s

let spans t = t.n

(* One CSV row per span: index, name, start and end ns (relative to the
   first span), parent index (-1 at top level), request id (-1 if none). *)
let write_csv t path =
  let oc = open_out path in
  output_string oc "id,name,start_ns,end_ns,parent,req\n";
  let base = if t.n > 0 then t.t0.(0) else 0 in
  for i = 0 to t.n - 1 do
    Printf.fprintf oc "%d,%s,%d,%d,%d,%d\n" i t.names.(t.name.(i)) (t.t0.(i) - base)
      (t.t1.(i) - base) t.parent.(i) t.req.(i)
  done;
  close_out oc
