module Rsa = Flicker_crypto.Rsa
module Tpm = Flicker_tpm.Tpm
module Privacy_ca = Flicker_tpm.Privacy_ca
module Verifier = Flicker_core.Verifier
module Attestation = Flicker_core.Attestation
module Memo = Flicker_core.Memo

(* Each memo is keyed by the values its stage reads. Equality is
   [String.equal], which returns on its pointer check for the strings
   every bundle of a chunk shares and otherwise compares bytes; each hash
   reads the first bytes of an RSA signature or the quoted PCR 17. *)

(* the certificate stage reads the AIK, the issuer and the signature *)
module Cert_key = struct
  type t = Privacy_ca.aik_certificate

  let equal (a : t) (b : t) =
    String.equal a.cert_signature b.cert_signature
    && String.equal a.issuer b.issuer
    && Rsa.public_equal a.subject_aik b.subject_aik

  let hash (c : t) = Memo.hash_prefix 0 c.cert_signature
end

(* the quote stage reads the certified AIK and the whole quote *)
module Quote_key = struct
  type t = Rsa.public * Tpm.quote

  let equal ((aik, a) : t) ((aik', b) : t) =
    String.equal a.Tpm.signature b.Tpm.signature
    && String.equal a.Tpm.quote_nonce b.Tpm.quote_nonce
    && List.equal
         (fun (i, d) (j, e) -> i = j && String.equal d e)
         a.Tpm.quoted_composite b.Tpm.quoted_composite
    && Rsa.public_equal aik aik'

  let hash ((_, q) : t) = Memo.hash_prefix 0 q.Tpm.signature
end

(* The PCR-17 stage reads the PAL's code (which, with the flavor,
   determines its SLB image), the load address, the nonce, the PAL's own
   extends, the ACM, the claimed I/O and the quoted PCR 17. Only quotes
   that cover PCR 17 are keyed (see [verify]), so [quoted] finds it. *)
module Pcr_key = struct
  type t = Verifier.expectation * Attestation.evidence

  let quoted (e : Attestation.evidence) = List.assoc 17 e.quote.Tpm.quoted_composite

  let equal ((x, a) : t) ((y, b) : t) =
    x.slb_base = y.slb_base && x.flavor = y.flavor
    && String.equal (quoted a) (quoted b)
    && String.equal x.nonce y.nonce
    && String.equal a.claimed_inputs b.claimed_inputs
    && String.equal a.claimed_outputs b.claimed_outputs
    && String.equal x.pal.code y.pal.code
    && List.equal String.equal x.pal_extends y.pal_extends
    && Option.equal String.equal x.acm y.acm

  let hash ((x, e) : t) = Memo.hash_prefix x.slb_base (quoted e)
end

module Cert_memo = Memo.Make (Cert_key)
module Quote_memo = Memo.Make (Quote_key)
module Pcr_memo = Memo.Make (Pcr_key)

type verdict = (unit, Verifier.failure) result

type t = {
  certs : verdict Cert_memo.t;
  quotes : verdict Quote_memo.t;
  pcrs : verdict Pcr_memo.t;
  run : Verifier.runner;  (* the first two stages, through their memos *)
}

let create ~ca_key () =
  let direct = Verifier.direct ~ca_key in
  let certs = Cert_memo.create direct.certificate in
  let quotes = Quote_memo.create direct.quote_signature in
  {
    certs;
    quotes;
    pcrs = Pcr_memo.create (fun (expectation, evidence) ->
        Verifier.check_pcr17 expectation evidence);
    run = { certificate = Cert_memo.find certs; quote_signature = Quote_memo.find quotes };
  }

let verify t (expectation : Verifier.expectation) (evidence : Attestation.evidence) =
  let ( let* ) = Result.bind in
  let* () =
    Verifier.authenticate t.run ~nonce:expectation.nonce evidence.aik_cert evidence.quote
  in
  (* a quote without PCR 17 has nothing to key, and the check answers
     [Missing_pcr17] without hashing *)
  if List.mem_assoc 17 evidence.quote.Tpm.quoted_composite then
    Pcr_memo.find t.pcrs (expectation, evidence)
  else Verifier.check_pcr17 expectation evidence

type stats = {
  cert_hits : int;
  cert_misses : int;
  quote_hits : int;
  quote_misses : int;
  pcr_hits : int;
  pcr_misses : int;
  bytes_saved : int;
}

let stats t =
  let c = Cert_memo.stats t.certs
  and q = Quote_memo.stats t.quotes
  and p = Pcr_memo.stats t.pcrs in
  {
    cert_hits = c.hits;
    cert_misses = c.misses;
    quote_hits = q.hits;
    quote_misses = q.misses;
    pcr_hits = p.hits;
    pcr_misses = p.misses;
    bytes_saved = c.bytes_saved + q.bytes_saved;
  }
