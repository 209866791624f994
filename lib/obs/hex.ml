let digits = "0123456789abcdef"

let encode s =
  let n = String.length s in
  let out = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code (String.unsafe_get s i) in
    Bytes.unsafe_set out (2 * i) (String.unsafe_get digits (c lsr 4));
    Bytes.unsafe_set out ((2 * i) + 1) (String.unsafe_get digits (c land 15))
  done;
  Bytes.unsafe_to_string out

(* Digit value per byte, -1 for a non-digit. *)
let nibble =
  let t = Array.make 256 (-1) in
  String.iteri
    (fun v c ->
      t.(Char.code c) <- v;
      t.(Char.code (Char.uppercase_ascii c)) <- v)
    digits;
  t

let decode h =
  let n = String.length h in
  if n land 1 <> 0 then None
  else
    let out = Bytes.create (n / 2) in
    let rec go i =
      if i >= n then Some (Bytes.unsafe_to_string out)
      else
        let hi = nibble.(Char.code (String.unsafe_get h i))
        and lo = nibble.(Char.code (String.unsafe_get h (i + 1))) in
        if hi < 0 || lo < 0 then None
        else begin
          Bytes.unsafe_set out (i / 2) (Char.unsafe_chr ((hi lsl 4) lor lo));
          go (i + 2)
        end
    in
    go 0
