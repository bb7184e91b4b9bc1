(** The sealed-storage wire format, shared by the hardware TPM and every
    vTPM: a vTPM seals exactly as the TPM does, in software and under its
    own key.

    The plaintext is a magic tag, the PCR policy, an opaque binding
    string and the payload; it is encrypted under a fresh AEAD key, and
    that key is RSA-wrapped under the sealer's storage key. The blob is
    the wrapped key, the nonce and the ciphertext. Policy checks, time
    charges and error wording stay with each sealer. *)

type contents = {
  pcr_policy : (int * string) list;
  binding : string;  (** [""] when the blob is bound to nothing. *)
  payload : string;
}

val encode :
  magic:string ->
  Sea_crypto.Rsa.public ->
  Sea_crypto.Drbg.t ->
  pcr_policy:(int * string) list ->
  binding:string ->
  string ->
  string
(** Draws the AEAD key, then the nonce, then the RSA padding from the
    DRBG, in that order. *)

val decode :
  magic:string ->
  Sea_crypto.Rsa.private_key ->
  string ->
  (contents, [ `Foreign | `Bad of string ]) result
(** [`Foreign] when the key does not unwrap the blob (another sealer's
    blob); [`Bad] for a failed integrity check or a malformed blob. *)
