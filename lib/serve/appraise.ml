module Bignum = Flicker_crypto.Bignum
module Rsa = Flicker_crypto.Rsa
module Sha1 = Flicker_crypto.Sha1
module Tpm = Flicker_tpm.Tpm
module Privacy_ca = Flicker_tpm.Privacy_ca
module Verifier = Flicker_core.Verifier
module Attestation = Flicker_core.Attestation

type verdict = (unit, Verifier.failure) result

(* --- memo keys ---------------------------------------------------------

   Each memo is keyed by the values its stage reads, never by a string
   built from them, so a lookup copies no claimed I/O and hashes nothing
   into the [Sha1.bytes_hashed] instrument. Equality is [String.equal],
   which returns on its pointer check for the strings every bundle of a
   chunk shares and otherwise compares bytes. Hashing a multi-KB field
   would cost what the memo saves, so each hash folds in the first bytes
   of one digest-like field: an RSA signature or the quoted PCR 17, which
   already tell distinct quotes apart. Equal keys read equal fields, so
   they hash equal. *)

let fold_prefix h s =
  let h = ref h in
  for i = 0 to min 8 (String.length s) - 1 do
    h := (!h * 31) + Char.code s.[i]
  done;
  !h land max_int

let public_equal (a : Rsa.public) (b : Rsa.public) =
  a == b || (Bignum.equal a.Rsa.n b.Rsa.n && Bignum.equal a.Rsa.e b.Rsa.e)

(* the certificate stage reads the AIK, the issuer and the signature *)
module Cert_key = struct
  type t = Privacy_ca.aik_certificate

  let equal (a : t) (b : t) =
    String.equal a.cert_signature b.cert_signature
    && String.equal a.issuer b.issuer
    && public_equal a.subject_aik b.subject_aik

  let hash (c : t) = fold_prefix 0 c.cert_signature
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
    && public_equal aik aik'

  let hash ((_, q) : t) = fold_prefix 0 q.Tpm.signature
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

  let hash ((x, e) : t) = fold_prefix x.slb_base (quoted e)
end

(* --- the memo ----------------------------------------------------------

   One implementation for all three stages. On a miss the stage runs for
   real and its [Sha1.bytes_hashed] delta is stored as the entry's cost;
   each later hit skips the stage and credits that cost to [saved].
   Failures are memoized too: a bad signature stays bad. The table is
   bounded by single-victim FIFO eviction: at [limit] entries the oldest
   key goes. A key is inserted only when it
   is absent, so the order queue holds exactly the table's keys. *)

let limit = 1024

module Memo (K : Hashtbl.HashedType) = struct
  module Tbl = Hashtbl.Make (K)

  type t = {
    run : K.t -> verdict;
    table : (verdict * int) Tbl.t;  (* key -> (verdict, bytes cost) *)
    order : K.t Queue.t;  (* insertion order, oldest first *)
    mutable hits : int;
    mutable misses : int;
    mutable saved : int;
  }

  let create run =
    {
      run;
      table = Tbl.create 64;
      order = Queue.create ();
      hits = 0;
      misses = 0;
      saved = 0;
    }

  let find m key =
    match Tbl.find_opt m.table key with
    | Some (verdict, cost) ->
        m.hits <- m.hits + 1;
        m.saved <- m.saved + cost;
        verdict
    | None ->
        m.misses <- m.misses + 1;
        let before = Sha1.bytes_hashed () in
        let verdict = m.run key in
        let cost = Sha1.bytes_hashed () - before in
        if Tbl.length m.table >= limit then Tbl.remove m.table (Queue.take m.order);
        Tbl.replace m.table key (verdict, cost);
        Queue.add key m.order;
        verdict
end

module Cert_memo = Memo (Cert_key)
module Quote_memo = Memo (Quote_key)
module Pcr_memo = Memo (Pcr_key)

type t = { certs : Cert_memo.t; quotes : Quote_memo.t; pcrs : Pcr_memo.t }

let create ~ca_key () =
  {
    certs = Cert_memo.create (Verifier.check_certificate ~ca_key);
    quotes =
      Quote_memo.create (fun (aik, quote) -> Verifier.check_quote_signature ~aik quote);
    pcrs =
      Pcr_memo.create (fun (expectation, evidence) ->
          Verifier.check_pcr17 expectation evidence);
  }

let verify t expectation (evidence : Attestation.evidence) =
  let ( let* ) = Result.bind in
  let cert = evidence.aik_cert in
  let quote = evidence.quote in
  let* () = Cert_memo.find t.certs cert in
  let* () = Quote_memo.find t.quotes (cert.subject_aik, quote) in
  (* the challenge differs per expectation: never memoized *)
  let* () = Verifier.check_freshness expectation quote in
  (* a quote without PCR 17 has nothing to key, and the check answers
     [Missing_pcr17] without hashing *)
  if List.mem_assoc 17 quote.Tpm.quoted_composite then
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
  {
    cert_hits = t.certs.hits;
    cert_misses = t.certs.misses;
    quote_hits = t.quotes.hits;
    quote_misses = t.quotes.misses;
    pcr_hits = t.pcrs.hits;
    pcr_misses = t.pcrs.misses;
    bytes_saved = t.certs.saved + t.quotes.saved;
  }
