(** Bounds-checked flat memory.

    Each allocation lives at a distinct base address with large guard
    gaps between allocations, so a bit flip in an address register most
    often lands outside every allocation and traps — reproducing the
    paper's observation that address-site faults predominantly crash.
    Flips of low-order bits can stay inside the allocation and silently
    corrupt data instead, which is equally faithful. *)

type region = {
  base : int64;
  size : int;        (** bytes *)
  data : Bytes.t;
  rname : string;    (** for debugging *)
}

(* Sentinel for "no region": zero-sized, so [in_region] is false for
   every address and the lookup cache can be a plain (never-[option])
   field — a cache miss then neither allocates a [Some] nor follows an
   extra indirection on the hot path. *)
let no_region = { base = -1L; size = 0; data = Bytes.empty; rname = "<none>" }

type t = {
  mutable regions : region list;  (** most recent first *)
  mutable next_base : int64;
  mutable last : region;
      (** one-entry lookup cache ([no_region] when empty): consecutive
          accesses overwhelmingly hit the same region. Purely an
          accelerator — hit or miss, the lookup result is unchanged. *)
}

(* Bases start high and advance by the allocation size rounded up to a
   page plus a guard page, mimicking a sparse address space. *)
let create () = { regions = []; next_base = 0x1000_0000L; last = no_region }

let page = 4096

let round_up n k = (n + k - 1) / k * k

let alloc m ~name ~bytes =
  if bytes < 0 then invalid_arg "Memory.alloc: negative size";
  let size = max bytes 1 in
  let base = m.next_base in
  let region = { base; size; data = Bytes.make size '\000'; rname = name } in
  m.regions <- region :: m.regions;
  m.next_base <-
    Int64.add base (Int64.of_int (round_up size page + page));
  base

(* ------------------------------------------------------------------ *)
(* Checkpointing. A snapshot captures the allocation state (region
   list, bump pointer) plus a full copy of every region's bytes.
   Restoring copies every saved region back and drops regions allocated
   after the snapshot (so in-run [alloca]s replay at identical
   addresses); comparing reads every byte. The workloads' images are a
   few KB, so whole copies and comparisons are cheap, and the store
   paths keep no bookkeeping for them. *)

type snapshot = {
  snap_next_base : int64;
  snap_regions : region list;
  snap_saved : (region * Bytes.t) array;
}

let snapshot m =
  {
    snap_next_base = m.next_base;
    snap_regions = m.regions;
    snap_saved =
      Array.of_list (List.map (fun r -> (r, Bytes.copy r.data)) m.regions);
  }

let restore m snap =
  Array.iter
    (fun (r, saved) -> Bytes.blit saved 0 r.data 0 r.size)
    snap.snap_saved;
  m.regions <- snap.snap_regions;
  m.next_base <- snap.snap_next_base;
  m.last <- no_region

let equal m snap =
  (* Any divergence in the allocation state (a region allocated after
     the snapshot that is still live, or a different bump pointer) is
     conservatively "not equal" — sound, and free to test. *)
  m.regions == snap.snap_regions
  && m.next_base = snap.snap_next_base
  && Array.for_all
       (fun (r, saved) -> Bytes.equal r.data saved)
       snap.snap_saved

let[@inline] in_region r addr =
  addr >= r.base && Int64.sub addr r.base < Int64.of_int r.size

let rec region_list addr = function
  | [] -> no_region
  | r :: rest -> if in_region r addr then r else region_list addr rest

(* Region lookup returning [no_region] on miss. The cache-hit test is
   forced inline into every access closure, and neither hit nor miss
   allocates (the classic-compiler alternative — an [option] — costs a
   [Some] per cache refill and boxes on every return). *)
let[@inline] find_region m addr : region =
  let l = m.last in
  if in_region l addr then l
  else begin
    let r = region_list addr m.regions in
    if r != no_region then m.last <- r;
    r
  end

let[@inline] reg_off r addr = Int64.to_int (Int64.sub addr r.base)

(* The whole range [addr, addr + bytes) inside one region, which is
   returned (the caller recomputes the offset with [reg_off] — two
   inlined int ops — instead of receiving an allocated tuple), or
   [no_region]: the caller falls back to the per-lane path, which
   reproduces the exact per-lane trap address. *)
let[@inline] range_region m addr ~bytes : region =
  let r = find_region m addr in
  if r != no_region && reg_off r addr + bytes <= r.size then r else no_region

(* In-bounds region for a [bytes]-wide access at [addr], or trap. *)
let[@inline] region_at m addr ~bytes : region =
  let r = range_region m addr ~bytes in
  if r == no_region then Trap.raise_ (Trap.Out_of_bounds addr);
  r

(* Scalar loads/stores by element kind. i1 occupies one byte. *)
let load_scalar m (s : Vir.Vtype.scalar) addr : Vvalue.t =
  let bytes = Vir.Vtype.scalar_bytes s in
  let r = region_at m addr ~bytes in
        let off = reg_off r addr in
  match s with
  | I1 ->
    Vvalue.I (I1, Ilanes.make 1 ((if Bytes.get r.data off = '\000' then 0L else 1L)))
  | I8 ->
    Vvalue.I (I8, Ilanes.make 1 (Int64.of_int (Char.code (Bytes.get r.data off) lsl 56 asr 56)))
  | I32 ->
    Vvalue.I (I32, Ilanes.make 1 (Int64.of_int32 (Bytes.get_int32_le r.data off)))
  | I64 -> Vvalue.I (I64, Ilanes.make 1 (Bytes.get_int64_le r.data off))
  | Ptr -> Vvalue.I (Ptr, Ilanes.make 1 (Bytes.get_int64_le r.data off))
  | F32 ->
    Vvalue.F
      (F32, [| Int32.float_of_bits (Bytes.get_int32_le r.data off) |])
  | F64 ->
    Vvalue.F (F64, [| Int64.float_of_bits (Bytes.get_int64_le r.data off) |])

(* Raw per-lane readers: same trap behaviour as [load_scalar] but the
   lane comes back unboxed, so the masked/gather loops neither allocate
   a value wrapper nor box the payload. *)
let load_scalar_int m (s : Vir.Vtype.scalar) addr : int64 =
  let bytes = Vir.Vtype.scalar_bytes s in
  let r = region_at m addr ~bytes in
        let off = reg_off r addr in
  match s with
  | I1 -> if Bytes.get r.data off = '\000' then 0L else 1L
  | I8 -> Int64.of_int (Char.code (Bytes.get r.data off) lsl 56 asr 56)
  | I32 -> Int64.of_int32 (Bytes.get_int32_le r.data off)
  | I64 | Ptr -> Bytes.get_int64_le r.data off
  | F32 | F64 -> invalid_arg "Memory.load_scalar_int: float scalar"

let load_scalar_float m (s : Vir.Vtype.scalar) addr : float =
  let bytes = Vir.Vtype.scalar_bytes s in
  let r = region_at m addr ~bytes in
        let off = reg_off r addr in
  match s with
  | F32 -> Int32.float_of_bits (Bytes.get_int32_le r.data off)
  | F64 -> Int64.float_of_bits (Bytes.get_int64_le r.data off)
  | _ -> invalid_arg "Memory.load_scalar_float: int scalar"

let store_scalar m (s : Vir.Vtype.scalar) addr (lane_int : int64)
    (lane_float : float) =
  let bytes = Vir.Vtype.scalar_bytes s in
  let r = region_at m addr ~bytes in
        let off = reg_off r addr in
  match s with
  | I1 -> Bytes.set r.data off (if lane_int = 0L then '\000' else '\001')
  | I8 -> Bytes.set r.data off (Char.chr (Int64.to_int lane_int land 0xFF))
  | I32 -> Bytes.set_int32_le r.data off (Int64.to_int32 lane_int)
  | I64 | Ptr -> Bytes.set_int64_le r.data off lane_int
  | F32 -> Bytes.set_int32_le r.data off (Int32.bits_of_float lane_float)
  | F64 -> Bytes.set_int64_le r.data off (Int64.bits_of_float lane_float)

(* Raw lane readers/writers against an already-resolved region; the
   fast vector paths below use them to avoid one region walk and one
   intermediate 1-lane value per lane. Byte-level encodings match
   [load_scalar]/[store_scalar] exactly. *)
let read_lane_int (s : Vir.Vtype.scalar) data off : int64 =
  match s with
  | Vir.Vtype.I1 -> if Bytes.get data off = '\000' then 0L else 1L
  | Vir.Vtype.I8 ->
    Int64.of_int (Char.code (Bytes.get data off) lsl 56 asr 56)
  | Vir.Vtype.I32 -> Int64.of_int32 (Bytes.get_int32_le data off)
  | Vir.Vtype.I64 | Vir.Vtype.Ptr -> Bytes.get_int64_le data off
  | Vir.Vtype.F32 | Vir.Vtype.F64 -> assert false

let read_lane_float (s : Vir.Vtype.scalar) data off : float =
  match s with
  | Vir.Vtype.F32 -> Int32.float_of_bits (Bytes.get_int32_le data off)
  | Vir.Vtype.F64 -> Int64.float_of_bits (Bytes.get_int64_le data off)
  | _ -> assert false

let write_lane_int (s : Vir.Vtype.scalar) data off (x : int64) =
  match s with
  | Vir.Vtype.I1 -> Bytes.set data off (if x = 0L then '\000' else '\001')
  | Vir.Vtype.I8 -> Bytes.set data off (Char.chr (Int64.to_int x land 0xFF))
  | Vir.Vtype.I32 -> Bytes.set_int32_le data off (Int64.to_int32 x)
  | Vir.Vtype.I64 | Vir.Vtype.Ptr -> Bytes.set_int64_le data off x
  | Vir.Vtype.F32 | Vir.Vtype.F64 -> assert false

let write_lane_float (s : Vir.Vtype.scalar) data off (x : float) =
  match s with
  | Vir.Vtype.F32 -> Bytes.set_int32_le data off (Int32.bits_of_float x)
  | Vir.Vtype.F64 -> Bytes.set_int64_le data off (Int64.bits_of_float x)
  | _ -> assert false

(* Load a (possibly vector) value of type [ty] from contiguous memory. *)
let load m (ty : Vir.Vtype.t) addr : Vvalue.t =
  match ty with
  | Vir.Vtype.Void -> invalid_arg "Memory.load: void"
  | Vir.Vtype.Scalar s -> load_scalar m s addr
  | Vir.Vtype.Vector (n, s) ->
    let sb = Vir.Vtype.scalar_bytes s in
    let step = Int64.of_int sb in
    (let r = range_region m addr ~bytes:(n * sb) in
    let off = reg_off r addr in
    match r != no_region with
    | true ->
      if Vir.Vtype.is_float_scalar s then begin
        let out = Array.make n 0.0 in
        for i = 0 to n - 1 do
          Array.unsafe_set out i (read_lane_float s r.data (off + (i * sb)))
        done;
        Vvalue.F (s, out)
      end
      else begin
        let out = Ilanes.make n 0L in
        for i = 0 to n - 1 do
          Ilanes.unsafe_set out i (read_lane_int s r.data (off + (i * sb)))
        done;
        Vvalue.I (s, out)
      end
    | false ->
      if Vir.Vtype.is_float_scalar s then
        Vvalue.F
          ( s,
            Array.init n (fun i ->
                match
                  load_scalar m s
                    (Int64.add addr (Int64.mul step (Int64.of_int i)))
                with
                | Vvalue.F (_, [| x |]) -> x
                | _ -> assert false) )
      else
        Vvalue.I
          ( s,
            Ilanes.init n (fun i ->
                match
                  load_scalar m s
                    (Int64.add addr (Int64.mul step (Int64.of_int i)))
                with
                | Vvalue.I (_, a) -> Ilanes.unsafe_get a 0
                | _ -> assert false) ))

(* Store a value to contiguous memory; [mask] (if given) disables lanes.
   Masked stores whose whole vector span lies inside one region resolve
   the region once and write enabled lanes at integer offsets (disabled
   lanes untouched and — being in bounds along with the rest of the
   span — needing no bounds check). Spans not contained in one region
   take the per-lane path, which bounds-checks only enabled lanes and
   reproduces exact per-lane trap addresses. *)
let store ?mask m (v : Vvalue.t) addr =
  let n = Vvalue.lanes v in
  let s = Vvalue.scalar_kind v in
  let sb = Vir.Vtype.scalar_bytes s in
  match mask with
  | None -> (
    let r = range_region m addr ~bytes:(n * sb) in
    let off = reg_off r addr in
    match r != no_region with
    | true -> (
      match v with
      | Vvalue.I (_, lanes) ->
        for i = 0 to n - 1 do
          write_lane_int s r.data (off + (i * sb)) (Ilanes.unsafe_get lanes i)
        done
      | Vvalue.F (_, lanes) ->
        for i = 0 to n - 1 do
          write_lane_float s r.data (off + (i * sb)) lanes.(i)
        done)
    | false ->
      let step = Int64.of_int sb in
      for i = 0 to n - 1 do
        let a = Int64.add addr (Int64.mul step (Int64.of_int i)) in
        match v with
        | Vvalue.I (_, lanes) ->
          store_scalar m s a (Ilanes.unsafe_get lanes i) 0.0
        | Vvalue.F (_, lanes) -> store_scalar m s a 0L lanes.(i)
      done)
  | Some mk -> (
    let r = range_region m addr ~bytes:(n * sb) in
    let off = reg_off r addr in
    match r != no_region with
    | true -> (
      let data = r.data in
      match v with
      | Vvalue.I (_, lanes) ->
        for i = 0 to n - 1 do
          if Vvalue.is_true_lane mk i then
            write_lane_int s data (off + (i * sb)) (Ilanes.unsafe_get lanes i)
        done
      | Vvalue.F (_, lanes) ->
        for i = 0 to n - 1 do
          if Vvalue.is_true_lane mk i then
            write_lane_float s data (off + (i * sb)) (Array.unsafe_get lanes i)
        done)
    | false ->
      let step = Int64.of_int sb in
      for i = 0 to n - 1 do
        if Vvalue.is_true_lane mk i then
          let a = Int64.add addr (Int64.mul step (Int64.of_int i)) in
          match v with
          | Vvalue.I (_, lanes) ->
            store_scalar m s a (Ilanes.unsafe_get lanes i) 0.0
          | Vvalue.F (_, lanes) -> store_scalar m s a 0L lanes.(i)
      done)

(* Pre-specialized load routine for a statically known access type:
   the threading stage builds one per load site, so the per-access work
   is region lookup + raw byte moves with no type dispatch, and the
   loaded lanes go straight into the destination register's pinned
   buffer. Only the access types the study modules run (f32 and i32
   scalars and vectors) get such a routine; every other type copies
   the value [load] builds. Semantics (including per-lane trap
   addresses on region-straddling vector accesses) are identical to
   [load]. The bounds check happens before the first write (and the
   region-straddling fallback goes through [load], which traps before
   the copy), so a trapping load leaves the destination untouched. A
   shape-mismatched destination — only reachable through a
   kind-confused extern result — raises. *)
let bad_into () = invalid_arg "Memory.loader_into: shape mismatch"

let loader_into (ty : Vir.Vtype.t) : t -> int64 -> Vvalue.t -> unit =
  match ty with
  | Vir.Vtype.Void -> invalid_arg "Memory.load: void"
  | Vir.Vtype.Scalar I32 ->
    fun m addr out ->
      let r = region_at m addr ~bytes:4 in
      let off = reg_off r addr in
      (match out with
      | Vvalue.I (_, o) ->
        Ilanes.unsafe_set o 0 (Int64.of_int32 (Bytes.get_int32_le r.data off))
      | _ -> bad_into ())
  | Vir.Vtype.Scalar F32 ->
    fun m addr out ->
      let r = region_at m addr ~bytes:4 in
      let off = reg_off r addr in
      (match out with
      | Vvalue.F (_, o) ->
        o.(0) <- Int32.float_of_bits (Bytes.get_int32_le r.data off)
      | _ -> bad_into ())
  | Vir.Vtype.Vector (n, F32) ->
    (* the byte decode is inlined, so the in-region fast path is region
       lookup plus raw byte moves *)
    fun m addr out ->
      (let r = range_region m addr ~bytes:(n * 4) in
       let off = reg_off r addr in
       match out with
       | Vvalue.F (_, o) when r != no_region ->
         for i = 0 to n - 1 do
           o.(i) <-
             Int32.float_of_bits (Bytes.get_int32_le r.data (off + (i * 4)))
         done
       | _ when r == no_region -> Vvalue.copy_into ~dst:out (load m ty addr)
       | _ -> bad_into ())
  | Vir.Vtype.Vector (n, I32) ->
    fun m addr out ->
      (let r = range_region m addr ~bytes:(n * 4) in
       let off = reg_off r addr in
       match out with
       | Vvalue.I (_, o) when r != no_region ->
         for i = 0 to n - 1 do
           Ilanes.unsafe_set o i
             (Int64.of_int32 (Bytes.get_int32_le r.data (off + (i * 4))))
         done
       | _ when r == no_region -> Vvalue.copy_into ~dst:out (load m ty addr)
       | _ -> bad_into ())
  | _ -> fun m addr out -> Vvalue.copy_into ~dst:out (load m ty addr)

(* Pre-specialized unmasked store for a statically known operand type
   (the VIR verifier guarantees the stored value has that type; masked
   stores go through [store ~mask]): f32 and i32 scalars and 4- and
   8-lane vectors, the types the study modules store; every other type
   goes through [store]. Identical semantics to [store]. *)
let storer (ty : Vir.Vtype.t) : t -> Vvalue.t -> int64 -> unit =
  match ty with
  | Vir.Vtype.Void -> invalid_arg "Memory.storer: void"
  | Vir.Vtype.Scalar I32 ->
    fun m v addr ->
      let r = region_at m addr ~bytes:4 in
      let off = reg_off r addr in
      (match v with
      | Vvalue.I (_, a) when Ilanes.length a = 1 ->
        Bytes.set_int32_le r.data off (Int64.to_int32 (Ilanes.unsafe_get a 0))
      | _ -> store_scalar m I32 addr (Vvalue.as_int v) 0.0)
  | Vir.Vtype.Scalar F32 ->
    fun m v addr ->
      let r = region_at m addr ~bytes:4 in
      let off = reg_off r addr in
      (match v with
      | Vvalue.F (_, [| x |]) ->
        Bytes.set_int32_le r.data off (Int32.bits_of_float x)
      | _ -> store_scalar m F32 addr 0L (Vvalue.as_float v))
  | Vir.Vtype.Vector (4, F32) ->
    fun m v addr ->
      (let r = range_region m addr ~bytes:16 in
       let off = reg_off r addr in
       match v with
       | Vvalue.F (_, l) when r != no_region && Array.length l = 4 ->
         Bytes.set_int32_le r.data off (Int32.bits_of_float l.(0));
         Bytes.set_int32_le r.data (off + 4) (Int32.bits_of_float l.(1));
         Bytes.set_int32_le r.data (off + 8) (Int32.bits_of_float l.(2));
         Bytes.set_int32_le r.data (off + 12) (Int32.bits_of_float l.(3))
       | _ -> store m v addr)
  | Vir.Vtype.Vector (8, F32) ->
    fun m v addr ->
      (let r = range_region m addr ~bytes:32 in
       let off = reg_off r addr in
       match v with
       | Vvalue.F (_, l) when r != no_region && Array.length l = 8 ->
         Bytes.set_int32_le r.data off (Int32.bits_of_float l.(0));
         Bytes.set_int32_le r.data (off + 4) (Int32.bits_of_float l.(1));
         Bytes.set_int32_le r.data (off + 8) (Int32.bits_of_float l.(2));
         Bytes.set_int32_le r.data (off + 12) (Int32.bits_of_float l.(3));
         Bytes.set_int32_le r.data (off + 16) (Int32.bits_of_float l.(4));
         Bytes.set_int32_le r.data (off + 20) (Int32.bits_of_float l.(5));
         Bytes.set_int32_le r.data (off + 24) (Int32.bits_of_float l.(6));
         Bytes.set_int32_le r.data (off + 28) (Int32.bits_of_float l.(7))
       | _ -> store m v addr)
  | Vir.Vtype.Vector (4, I32) ->
    fun m v addr ->
      (let r = range_region m addr ~bytes:16 in
       let off = reg_off r addr in
       match v with
       | Vvalue.I (_, l) when r != no_region && Ilanes.length l = 4 ->
         Bytes.set_int32_le r.data off (Int64.to_int32 (Ilanes.unsafe_get l 0));
         Bytes.set_int32_le r.data (off + 4) (Int64.to_int32 (Ilanes.unsafe_get l 1));
         Bytes.set_int32_le r.data (off + 8) (Int64.to_int32 (Ilanes.unsafe_get l 2));
         Bytes.set_int32_le r.data (off + 12) (Int64.to_int32 (Ilanes.unsafe_get l 3))
       | _ -> store m v addr)
  | Vir.Vtype.Vector (8, I32) ->
    fun m v addr ->
      (let r = range_region m addr ~bytes:32 in
       let off = reg_off r addr in
       match v with
       | Vvalue.I (_, l) when r != no_region && Ilanes.length l = 8 ->
         Bytes.set_int32_le r.data off (Int64.to_int32 (Ilanes.unsafe_get l 0));
         Bytes.set_int32_le r.data (off + 4) (Int64.to_int32 (Ilanes.unsafe_get l 1));
         Bytes.set_int32_le r.data (off + 8) (Int64.to_int32 (Ilanes.unsafe_get l 2));
         Bytes.set_int32_le r.data (off + 12) (Int64.to_int32 (Ilanes.unsafe_get l 3));
         Bytes.set_int32_le r.data (off + 16) (Int64.to_int32 (Ilanes.unsafe_get l 4));
         Bytes.set_int32_le r.data (off + 20) (Int64.to_int32 (Ilanes.unsafe_get l 5));
         Bytes.set_int32_le r.data (off + 24) (Int64.to_int32 (Ilanes.unsafe_get l 6));
         Bytes.set_int32_le r.data (off + 28) (Int64.to_int32 (Ilanes.unsafe_get l 7))
       | _ -> store m v addr)
  | _ -> fun m v addr -> store m v addr

(* Destination-passing masked load: every lane of the destination is
   written (disabled lanes read as zero without touching memory, per
   AVX maskload), so no stale lane survives in the pinned buffer. An
   enabled lane that points out of bounds traps with its own address;
   a masked-off one never traps. When the whole vector span
   lies inside one region (the common foreach-tail case) the region is
   resolved once and lanes are read at integer offsets, so the access
   neither boxes per-lane [int64] addresses nor allocates region/offset
   pairs; the per-lane fallback reproduces exact per-lane trap
   addresses for straddling or partially out-of-bounds spans. *)
let masked_load_into m (ty : Vir.Vtype.t) addr ~mask (out : Vvalue.t) =
  match (ty, out) with
  | Vir.Vtype.Vector (n, s), Vvalue.F (_, o)
    when Vir.Vtype.is_float_scalar s -> (
    let sb = Vir.Vtype.scalar_bytes s in
    let r = range_region m addr ~bytes:(n * sb) in
    let off = reg_off r addr in
    match r != no_region with
    | true ->
      let data = r.data in
      for i = 0 to n - 1 do
        Array.unsafe_set o i
          (if Vvalue.is_true_lane mask i then
             read_lane_float s data (off + (i * sb))
           else 0.0)
      done
    | false ->
      let step = Int64.of_int sb in
      for i = 0 to n - 1 do
        o.(i) <-
          (if Vvalue.is_true_lane mask i then
             load_scalar_float m s
               (Int64.add addr (Int64.mul step (Int64.of_int i)))
           else 0.0)
      done)
  | Vir.Vtype.Vector (n, s), Vvalue.I (_, o)
    when not (Vir.Vtype.is_float_scalar s) -> (
    let sb = Vir.Vtype.scalar_bytes s in
    let r = range_region m addr ~bytes:(n * sb) in
    let off = reg_off r addr in
    match r != no_region with
    | true ->
      let data = r.data in
      for i = 0 to n - 1 do
        Ilanes.unsafe_set o i
          (if Vvalue.is_true_lane mask i then
             read_lane_int s data (off + (i * sb))
           else 0L)
      done
    | false ->
      let step = Int64.of_int sb in
      for i = 0 to n - 1 do
        Ilanes.unsafe_set o i
          (if Vvalue.is_true_lane mask i then
             load_scalar_int m s
               (Int64.add addr (Int64.mul step (Int64.of_int i)))
           else 0L)
      done)
  | Vir.Vtype.Vector _, _ ->
    invalid_arg "Memory.masked_load_into: shape mismatch"
  | _ -> invalid_arg "Memory.masked_load_into: scalar type"

(* Typed bulk accessors used by the benchmark harness. Each resolves
   the region once when the whole range is in bounds (the usual case);
   otherwise the per-element path reproduces the per-element trap. *)

let write_i32_array m base (xs : int array) =
  let r = range_region m base ~bytes:(4 * Array.length xs) in
    let off = reg_off r base in
    match r != no_region with
  | true ->
    Array.iteri
      (fun i x -> Bytes.set_int32_le r.data (off + (4 * i)) (Int32.of_int x))
      xs
  | false ->
    Array.iteri
      (fun i x ->
        store_scalar m I32 (Int64.add base (Int64.of_int (4 * i)))
          (Int64.of_int x) 0.0)
      xs

let read_i32_array m base n =
  let r = range_region m base ~bytes:(4 * n) in
    let off = reg_off r base in
    match r != no_region with
  | true ->
    Array.init n (fun i ->
        Int32.to_int (Bytes.get_int32_le r.data (off + (4 * i))))
  | false ->
    Array.init n (fun i ->
        match load_scalar m I32 (Int64.add base (Int64.of_int (4 * i))) with
        | Vvalue.I (_, a) -> Int64.to_int (Ilanes.unsafe_get a 0)
        | _ -> assert false)

let write_f32_array m base (xs : float array) =
  let r = range_region m base ~bytes:(4 * Array.length xs) in
    let off = reg_off r base in
    match r != no_region with
  | true ->
    Array.iteri
      (fun i x ->
        Bytes.set_int32_le r.data (off + (4 * i)) (Int32.bits_of_float x))
      xs
  | false ->
    Array.iteri
      (fun i x ->
        store_scalar m F32 (Int64.add base (Int64.of_int (4 * i))) 0L x)
      xs

let read_f32_array m base n =
  let r = range_region m base ~bytes:(4 * n) in
    let off = reg_off r base in
    match r != no_region with
  | true ->
    Array.init n (fun i ->
        Int32.float_of_bits (Bytes.get_int32_le r.data (off + (4 * i))))
  | false ->
    Array.init n (fun i ->
        match load_scalar m F32 (Int64.add base (Int64.of_int (4 * i))) with
        | Vvalue.F (_, [| x |]) -> x
        | _ -> assert false)
