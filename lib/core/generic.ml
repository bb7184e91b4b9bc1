open Sea_crypto

(* Gen and Use are two entry commands of the SAME binary, exactly as in the
   Flicker-style applications of §4.1: the sealed state must unseal in a
   later session, which requires the later session to carry the same
   measurement — so the code identity has to be shared. *)
let shared_behavior ~secret_size ~reseal services input =
  if String.length input = 0 then begin
    (* Gen: create application data and seal it for later use. Key material
       is derived on the CPU (cheap) rather than via TPM GetRandom, as the
       paper's applications do. *)
    let drbg = Drbg.create ~seed:("pal-gen-secret:" ^ services.Pal.machine_name) in
    let secret = Drbg.generate_string drbg secret_size in
    services.Pal.seal secret
  end
  else begin
    (* Use: retrieve state sealed by a previous session and operate on it. *)
    match services.Pal.unseal input with
    | Error e -> Error ("unseal: " ^ e)
    | Ok secret ->
        let updated =
          if String.length secret < 32 then Sha256.digest secret
          else Sha256.digest secret ^ String.sub secret 32 (String.length secret - 32)
        in
        if reseal then services.Pal.seal updated else Ok (Sha1.digest secret)
  end

(* One name + size = one measurement for both entry points. *)
let name = "generic-gen-use"
let code_size = 64 * 1024
let default_secret_size = 256

let pal_gen ?(code_size = code_size) ?(secret_size = default_secret_size)
    () =
  Pal.create ~name ~code_size (shared_behavior ~secret_size ~reseal:false)

let pal_use ?(code_size = code_size) ?(reseal = true) ?compute_time () =
  Pal.create ~name ~code_size ?compute_time
    (shared_behavior ~secret_size:default_secret_size ~reseal)

let use_of_code ~compute_time code =
  Pal.of_code ~name ~code ~compute_time
    (shared_behavior ~secret_size:default_secret_size ~reseal:true)
