(** Shared structures for the TPM v1.2 simulator. *)

type digest = string
(** Always 20 bytes (SHA-1). *)

val digest_size : int
val zero_digest : digest
(** 20 zero bytes: the value of a dynamic PCR right after SKINIT. *)

val reboot_digest : digest
(** 20 [0xff] bytes: the "-1" a reboot writes into PCRs 17–23 so a
    verifier can distinguish a reboot from a dynamic reset (Section 2.3). *)

type pcr_selection = int list
(** Sorted, duplicate-free PCR indices. Build with [selection]. *)

val selection : int list -> pcr_selection
(** @raise Invalid_argument on an index outside 0–23. *)

type pcr_composite = (int * digest) list
(** Selected PCR indices with their values at composite time. *)

val composite_hash : pcr_composite -> digest
(** TPM_COMPOSITE_HASH over the serialized selection and values. *)

type error =
  | Bad_auth  (** HMAC authorization failed *)
  | Wrong_pcr_value  (** release condition not met (TPM_WRONGPCRVAL) *)
  | Bad_index  (** no such PCR / NV space / counter / key handle *)
  | Bad_parameter of string
  | Locality_violation  (** command issued from an unauthorized locality *)
  | Decrypt_error  (** sealed blob corrupt or not sealed by this TPM *)
  | Area_exists  (** NV space already defined *)
  | Tpm_busy
      (** transient TPM_RETRY: the command did not execute and can be
          reissued — real 1.2 parts return this under self-test or
          resource pressure; the fault injector uses it for transient
          command errors *)

val error_to_string : error -> string

type locality = int
(** 0–4. SKINIT-initiated commands arrive at locality 4. *)

val owner_auth_size : int
(** 20 bytes of TPM Owner Authorization Data. *)
