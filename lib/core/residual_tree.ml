(* Max-residual segment tree over the fast track's open slots.

   An implicit binary heap in one int array: node 1 is the root, node
   [i] has children [2i] and [2i + 1], and leaf [s] sits at
   [leaves + s].  [leaves] is a power of two (or 0 before the first
   append), so every leaf is at the same depth and a descent is
   exactly log2(leaves) steps. *)

type t = { mutable leaves : int; mutable node : int array }

let empty = -1
let create () = { leaves = 0; node = [||] }

let max_of node i =
  let l = node.(2 * i) and r = node.((2 * i) + 1) in
  if l >= r then l else r

let grow t =
  let n = t.leaves in
  let m = if n = 0 then 64 else 2 * n in
  let node = Array.make (2 * m) empty in
  Array.blit t.node n node m n;
  for i = m - 1 downto 1 do
    node.(i) <- max_of node i
  done;
  t.leaves <- m;
  t.node <- node

let update t ~slot r =
  let node = t.node in
  let i = ref (t.leaves + slot) in
  node.(!i) <- r;
  i := !i / 2;
  while !i >= 1 do
    let m = max_of node !i in
    if node.(!i) = m then i := 0
    else begin
      node.(!i) <- m;
      i := !i / 2
    end
  done

let append t ~slot r =
  if slot >= t.leaves then grow t;
  update t ~slot r

let remove t ~slot ~len =
  let node = t.node and n = t.leaves in
  for s = slot to len - 2 do
    node.(n + s) <- node.(n + s + 1)
  done;
  node.(n + len - 1) <- empty;
  (* Every ancestor of a shifted leaf, level by level: at each level
     they form the contiguous range [lo, hi]. *)
  let lo = ref ((n + slot) / 2) and hi = ref ((n + len - 1) / 2) in
  while !lo >= 1 do
    for i = !lo to !hi do
      node.(i) <- max_of node i
    done;
    lo := !lo / 2;
    hi := !hi / 2
  done

let first_fit t size =
  let node = t.node and n = t.leaves in
  if n = 0 || node.(1) < size then -1
  else begin
    (* The root admits [size], so at every step one child does too:
       go left whenever the left one does. *)
    let i = ref 1 in
    while !i < n do
      let l = 2 * !i in
      i := if node.(l) >= size then l else l + 1
    done;
    !i - n
  end

let max_residual t = if t.leaves = 0 then empty else t.node.(1)

let check t ~len ~residual =
  let n = t.leaves in
  if len < 0 || len > n then
    Error (Printf.sprintf "%d slots but %d leaves" len n)
  else begin
    let problem = ref None in
    let report msg = if Option.is_none !problem then problem := Some msg in
    for s = 0 to n - 1 do
      let expected = if s < len then residual s else empty in
      if t.node.(n + s) <> expected then
        report
          (Printf.sprintf "leaf %d holds %d, expected %d" s t.node.(n + s)
             expected)
    done;
    for i = n - 1 downto 1 do
      if t.node.(i) <> max_of t.node i then
        report
          (Printf.sprintf "node %d holds %d, children max %d" i t.node.(i)
             (max_of t.node i))
    done;
    match !problem with None -> Ok () | Some msg -> Error msg
  end
