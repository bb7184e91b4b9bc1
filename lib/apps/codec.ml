open Sea_crypto

let command verb args =
  let enc = Wire.encoder () in
  Wire.add_string enc verb;
  Wire.add_list enc (fun a -> Wire.add_string enc a) args;
  Wire.contents enc

let parse_command s =
  let d = Wire.decoder s in
  match Wire.read_string d with
  | None -> None
  | Some verb -> (
      match Wire.read_list d (fun () -> Wire.read_string d) with
      | Some args -> Some (verb, args)
      | None -> None)

let rsa_private_to_string (key : Rsa.private_key) =
  let enc = Wire.encoder () in
  List.iter
    (fun v -> Wire.add_string enc (Bignum.to_bytes_be v))
    [ key.Rsa.pub.Rsa.n; key.Rsa.pub.Rsa.e; key.Rsa.d; key.Rsa.p; key.Rsa.q ];
  Wire.contents enc

let rsa_private_of_string s =
  let d = Wire.decoder s in
  let read () = Option.map Bignum.of_bytes_be (Wire.read_string d) in
  match (read (), read (), read (), read (), read ()) with
  | Some n, Some e, Some dd, Some p, Some q -> (
      (* Rebuild from the primes and accept only a consistent key: CRT
         signs with p and q, so n and d must be the ones they imply. *)
      match Option.bind (Bignum.to_int_opt e) (fun e -> Rsa.of_primes ~e p q) with
      | Some key when Bignum.equal key.Rsa.pub.Rsa.n n && Bignum.equal key.Rsa.d dd ->
          Some key
      | _ -> None)
  | _ -> None

let rsa_public_to_string (pub : Rsa.public) =
  let enc = Wire.encoder () in
  Wire.add_string enc (Bignum.to_bytes_be pub.Rsa.n);
  Wire.add_string enc (Bignum.to_bytes_be pub.Rsa.e);
  Wire.contents enc

let rsa_public_of_string s =
  let d = Wire.decoder s in
  let read () = Option.map Bignum.of_bytes_be (Wire.read_string d) in
  match (read (), read ()) with
  | Some n, Some e -> Some (Rsa.public ~n ~e)
  | _ -> None
