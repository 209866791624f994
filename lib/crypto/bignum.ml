(* Little-endian limbs in [0, 2^26); no high zero limbs; [||] is zero. *)

let limb_bits = 26
let base = 1 lsl limb_bits
let limb_mask = base - 1

type t = int array

let zero : t = [||]
let one : t = [| 1 |]
let two : t = [| 2 |]

let normalize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int i =
  if i < 0 then invalid_arg "Bignum.of_int: negative"
  else if i = 0 then zero
  else begin
    let rec limbs acc i = if i = 0 then List.rev acc else limbs ((i land limb_mask) :: acc) (i lsr limb_bits) in
    Array.of_list (limbs [] i)
  end

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)
  end

let equal a b = compare a b = 0
let is_zero a = Array.length a = 0
let is_even a = Array.length a = 0 || a.(0) land 1 = 0

let bits a =
  let n = Array.length a in
  if n = 0 then 0
  else begin
    let top = a.(n - 1) in
    let rec msb k = if top lsr k = 0 then k else msb (k + 1) in
    ((n - 1) * limb_bits) + msb 0
  end

let to_int_opt a =
  if bits a > 62 then None
  else begin
    let rec go i acc = if i < 0 then acc else go (i - 1) ((acc lsl limb_bits) lor a.(i)) in
    Some (go (Array.length a - 1) 0)
  end

let add (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb in
  let r = Array.make (n + 1) 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  r.(n) <- !carry;
  normalize r

let sub (a : t) (b : t) : t =
  if compare a b < 0 then invalid_arg "Bignum.sub: negative result";
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      r.(i) <- d + base;
      borrow := 1
    end
    else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  normalize r

let mul (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let t = r.(i + j) + (ai * b.(j)) + !carry in
        r.(i + j) <- t land limb_mask;
        carry := t lsr limb_bits
      done;
      (* Propagate the final carry (it can exceed one limb). *)
      let k = ref (i + lb) in
      while !carry > 0 do
        let t = r.(!k) + !carry in
        r.(!k) <- t land limb_mask;
        carry := t lsr limb_bits;
        incr k
      done
    done;
    normalize r
  end

let shift_left (a : t) k =
  if k < 0 then invalid_arg "Bignum.shift_left"
  else if is_zero a || k = 0 then a
  else begin
    let limb_shift = k / limb_bits and bit_shift = k mod limb_bits in
    let la = Array.length a in
    let r = Array.make (la + limb_shift + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl bit_shift in
      r.(i + limb_shift) <- r.(i + limb_shift) lor (v land limb_mask);
      r.(i + limb_shift + 1) <- v lsr limb_bits
    done;
    normalize r
  end

let shift_right (a : t) k =
  if k < 0 then invalid_arg "Bignum.shift_right"
  else if is_zero a || k = 0 then a
  else begin
    let limb_shift = k / limb_bits and bit_shift = k mod limb_bits in
    let la = Array.length a in
    if limb_shift >= la then zero
    else begin
      let n = la - limb_shift in
      let r = Array.make n 0 in
      for i = 0 to n - 1 do
        let lo = a.(i + limb_shift) lsr bit_shift in
        let hi =
          if bit_shift > 0 && i + limb_shift + 1 < la then
            (a.(i + limb_shift + 1) lsl (limb_bits - bit_shift)) land limb_mask
          else 0
        in
        r.(i) <- lo lor hi
      done;
      normalize r
    end
  end

(* Division by a single limb. *)
let divmod_small (a : t) d =
  if d = 0 then raise Division_by_zero;
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!r lsl limb_bits) lor a.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (normalize q, !r)

(* Knuth TAOCP vol. 2, algorithm 4.3.1 D. *)
let divmod_knuth (u0 : t) (v0 : t) =
  let n = Array.length v0 in
  (* Normalise so the top limb of v has its high bit set. *)
  let s =
    let rec go k = if v0.(n - 1) lsl k >= base / 2 then k else go (k + 1) in
    go 0
  in
  let v = shift_left v0 s in
  let u_shifted = shift_left u0 s in
  let m = Array.length u_shifted - n in
  (* Working copy of u with one extra high limb. *)
  let u = Array.make (Array.length u_shifted + 1) 0 in
  Array.blit u_shifted 0 u 0 (Array.length u_shifted);
  let q = Array.make (m + 1) 0 in
  for j = m downto 0 do
    let top = (u.(j + n) lsl limb_bits) lor u.(j + n - 1) in
    let qhat = ref (top / v.(n - 1)) in
    let rhat = ref (top mod v.(n - 1)) in
    let continue_correction = ref true in
    while !continue_correction do
      if
        !qhat >= base
        || (n >= 2 && !qhat * v.(n - 2) > (!rhat lsl limb_bits) lor u.(j + n - 2))
      then begin
        decr qhat;
        rhat := !rhat + v.(n - 1);
        if !rhat >= base then continue_correction := false
      end
      else continue_correction := false
    done;
    (* Multiply-subtract qhat * v from u[j .. j+n]. *)
    let borrow = ref 0 and carry = ref 0 in
    for i = 0 to n - 1 do
      let p = (!qhat * v.(i)) + !carry in
      carry := p lsr limb_bits;
      let d = u.(i + j) - (p land limb_mask) - !borrow in
      if d < 0 then begin
        u.(i + j) <- d + base;
        borrow := 1
      end
      else begin
        u.(i + j) <- d;
        borrow := 0
      end
    done;
    let d = u.(j + n) - !carry - !borrow in
    if d < 0 then begin
      (* qhat was one too large: add v back. *)
      u.(j + n) <- d + base;
      decr qhat;
      let carry2 = ref 0 in
      for i = 0 to n - 1 do
        let t = u.(i + j) + v.(i) + !carry2 in
        u.(i + j) <- t land limb_mask;
        carry2 := t lsr limb_bits
      done;
      u.(j + n) <- (u.(j + n) + !carry2) land limb_mask
    end
    else u.(j + n) <- d;
    q.(j) <- !qhat
  done;
  let r = normalize (Array.sub u 0 n) in
  (normalize q, shift_right r s)

let divmod a b =
  if is_zero b then raise Division_by_zero
  else if compare a b < 0 then (zero, a)
  else if Array.length b = 1 then begin
    let q, r = divmod_small a b.(0) in
    (q, of_int r)
  end
  else divmod_knuth a b

let rem a b = snd (divmod a b)

let modpow b e m =
  if is_zero m then raise Division_by_zero
  else if equal m one then zero
  else begin
    let result = ref one in
    let b = ref (rem b m) in
    let nbits = bits e in
    for i = 0 to nbits - 1 do
      let limb = e.(i / limb_bits) in
      if (limb lsr (i mod limb_bits)) land 1 = 1 then
        result := rem (mul !result !b) m;
      if i < nbits - 1 then b := rem (mul !b !b) m
    done;
    !result
  end

let rec gcd a b = if is_zero b then a else gcd b (rem a b)

(* Extended Euclid with a small signed layer (sign * magnitude). *)
let modinv a m =
  if is_zero m then raise Division_by_zero;
  let sadd (sa, va) (sb, vb) =
    if sa = sb then (sa, add va vb)
    else if compare va vb >= 0 then (sa, sub va vb)
    else (sb, sub vb va)
  in
  let smul_nat q (s, v) = (s, mul q v) in
  let sneg (s, v) = ((if is_zero v then 1 else -s), v) in
  let rec go old_r r old_s s =
    if is_zero r then (old_r, old_s)
    else begin
      let q, r' = divmod old_r r in
      let s' = sadd old_s (sneg (smul_nat q s)) in
      go r r' s s'
    end
  in
  let g, (sign, v) = go (rem a m) m (1, one) (1, zero) in
  if not (equal g one) then None
  else begin
    let v = rem v m in
    if sign >= 0 || is_zero v then Some v else Some (sub m v)
  end

let random_bits prng n =
  if n <= 0 then invalid_arg "Bignum.random_bits";
  let nlimbs = (n + limb_bits - 1) / limb_bits in
  let r = Array.make nlimbs 0 in
  for i = 0 to nlimbs - 1 do
    r.(i) <- Int64.to_int (Int64.logand (Prng.next_int64 prng) (Int64.of_int limb_mask))
  done;
  (* Mask above bit n-1, then force the top bit. *)
  let top = n - 1 in
  let top_limb = top / limb_bits and top_bit = top mod limb_bits in
  for i = top_limb + 1 to nlimbs - 1 do
    r.(i) <- 0
  done;
  r.(top_limb) <- (r.(top_limb) land ((1 lsl (top_bit + 1)) - 1)) lor (1 lsl top_bit);
  normalize r

let random_below prng bound =
  if is_zero bound then invalid_arg "Bignum.random_below: zero bound";
  let n = bits bound in
  let rec try_once attempts =
    if attempts > 1000 then rem (random_bits prng n) bound
    else begin
      (* Draw n random bits without forcing the top bit. *)
      let nlimbs = (n + limb_bits - 1) / limb_bits in
      let r = Array.make nlimbs 0 in
      for i = 0 to nlimbs - 1 do
        r.(i) <- Int64.to_int (Int64.logand (Prng.next_int64 prng) (Int64.of_int limb_mask))
      done;
      let top = n - 1 in
      let top_limb = top / limb_bits and top_bit = top mod limb_bits in
      for i = top_limb + 1 to nlimbs - 1 do
        r.(i) <- 0
      done;
      r.(top_limb) <- r.(top_limb) land ((1 lsl (top_bit + 1)) - 1);
      let v = normalize r in
      if compare v bound < 0 then v else try_once (attempts + 1)
    end
  in
  try_once 0

let small_primes =
  [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41; 43; 47; 53; 59; 61; 67;
    71; 73; 79; 83; 89; 97; 101; 103; 107; 109; 113; 127; 131; 137; 139;
    149; 151; 157; 163; 167; 173; 179; 181; 191; 193; 197; 199; 211; 223;
    227; 229; 233; 239; 241; 251 ]

let is_probable_prime prng ?(rounds = 20) n =
  if compare n two < 0 then false
  else if
    List.exists
      (fun p ->
        let bp = of_int p in
        equal n bp)
      small_primes
  then true
  else if
    List.exists
      (fun p -> snd (divmod_small n p) = 0)
      small_primes
  then false
  else begin
    (* n - 1 = d * 2^r with d odd *)
    let n1 = sub n one in
    let rec split d r = if is_even d then split (shift_right d 1) (r + 1) else (d, r) in
    let d, r = split n1 0 in
    let witness a =
      let x = ref (modpow a d n) in
      if equal !x one || equal !x n1 then false
      else begin
        let composite = ref true in
        (try
           for _ = 1 to r - 1 do
             x := rem (mul !x !x) n;
             if equal !x n1 then begin
               composite := false;
               raise Exit
             end
           done
         with Exit -> ());
        !composite
      end
    in
    let rec rounds_left k =
      if k = 0 then true
      else begin
        let a = add two (random_below prng (sub n (of_int 4))) in
        if witness a then false else rounds_left (k - 1)
      end
    in
    compare n (of_int 4) > 0 && rounds_left rounds
  end

let generate_prime prng ~bits:nbits =
  if nbits < 8 then invalid_arg "Bignum.generate_prime: need >= 8 bits";
  let rec go () =
    let c = random_bits prng nbits in
    let c = if is_even c then add c one else c in
    if is_probable_prime prng c then c else go ()
  in
  go ()

let of_bytes_be b =
  let n = Bytes.length b in
  let v = ref zero in
  for i = 0 to n - 1 do
    v := add (shift_left !v 8) (of_int (Char.code (Bytes.get b i)))
  done;
  !v

let to_bytes_be ?size a =
  let nbytes = max 1 ((bits a + 7) / 8) in
  let total =
    match size with
    | None -> nbytes
    | Some s ->
        if s < nbytes then invalid_arg "Bignum.to_bytes_be: size too small"
        else s
  in
  let b = Bytes.make total '\000' in
  (* One walk over the limbs, low to high: [acc] holds the [acc_bits]
     bits not yet written, emitted a byte at a time from the end.  Bytes
     past the top of [b] are the top limb's zero high bits. *)
  let acc = ref 0 and acc_bits = ref 0 and i = ref (total - 1) in
  let emit () =
    if !i >= 0 then Bytes.unsafe_set b !i (Char.unsafe_chr (!acc land 0xff));
    acc := !acc lsr 8;
    acc_bits := !acc_bits - 8;
    decr i
  in
  Array.iter
    (fun limb ->
      acc := !acc lor (limb lsl !acc_bits);
      acc_bits := !acc_bits + limb_bits;
      while !acc_bits >= 8 do
        emit ()
      done)
    a;
  if !acc <> 0 then emit ();
  b

let of_string s =
  if s = "" then invalid_arg "Bignum.of_string: empty";
  let v = ref zero in
  String.iter
    (fun c ->
      if c < '0' || c > '9' then invalid_arg "Bignum.of_string: not a digit"
      else v := add (mul !v (of_int 10)) (of_int (Char.code c - Char.code '0')))
    s;
  !v

let to_string a =
  if is_zero a then "0"
  else begin
    (* Peel 7 decimal digits at a time (10^7 < 2^26). *)
    let chunk = 10_000_000 in
    let rec go v acc =
      if is_zero v then acc
      else begin
        let q, r = divmod_small v chunk in
        if is_zero q then string_of_int r :: acc
        else go q (Printf.sprintf "%07d" r :: acc)
      end
    in
    String.concat "" (go a [])
  end

let to_hex a =
  if is_zero a then "0"
  else begin
    let s = Peertrust_obs.Hex.encode (Bytes.unsafe_to_string (to_bytes_be a)) in
    (* Strip one possible leading zero nibble for a canonical form. *)
    if String.length s > 1 && s.[0] = '0' then String.sub s 1 (String.length s - 1) else s
  end

let pp fmt a = Format.pp_print_string fmt (to_string a)
