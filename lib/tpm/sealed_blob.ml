open Sea_crypto

type contents = {
  pcr_policy : (int * string) list;
  binding : string;
  payload : string;
}

let encode ~magic key drbg ~pcr_policy ~binding payload =
  let enc = Wire.encoder () in
  Wire.add_string enc magic;
  Wire.add_list enc
    (fun (i, v) ->
      Wire.add_int enc i;
      Wire.add_string enc v)
    pcr_policy;
  Wire.add_string enc binding;
  Wire.add_string enc payload;
  let plaintext = Wire.contents enc in
  let sym_key = Drbg.generate_string drbg Aead.key_size in
  let nonce = Drbg.generate_string drbg Aead.nonce_size in
  let wrapped = Rsa.encrypt key drbg sym_key in
  let body = Aead.encrypt ~key:sym_key ~nonce plaintext in
  let out = Wire.encoder () in
  Wire.add_string out wrapped;
  Wire.add_string out nonce;
  Wire.add_string out body;
  Wire.contents out

let corrupt = Error (`Bad "corrupted blob")

let decode_plaintext ~magic plaintext =
  let d = Wire.decoder plaintext in
  match Wire.read_string d with
  | Some m when m = magic -> (
      let policy =
        Wire.read_list d (fun () ->
            match (Wire.read_int d, Wire.read_string d) with
            | Some i, Some v -> Some (i, v)
            | _ -> None)
      in
      match (policy, Wire.read_string d, Wire.read_string d) with
      | Some pcr_policy, Some binding, Some payload ->
          Ok { pcr_policy; binding; payload }
      | _ -> corrupt)
  | _ -> corrupt

let decode ~magic key blob =
  let d = Wire.decoder blob in
  match (Wire.read_string d, Wire.read_string d, Wire.read_string d) with
  | Some wrapped, Some nonce, Some body -> (
      match Rsa.decrypt key wrapped with
      | None -> Error `Foreign
      | Some sym_key when String.length sym_key <> Aead.key_size -> corrupt
      | Some sym_key -> (
          match Aead.decrypt ~key:sym_key ~nonce body with
          | None -> Error (`Bad "blob integrity check failed")
          | Some plaintext -> decode_plaintext ~magic plaintext))
  | _ -> corrupt
