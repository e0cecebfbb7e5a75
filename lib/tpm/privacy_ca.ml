open Flicker_crypto

type aik_certificate = {
  subject_aik : Rsa.public;
  issuer : string;
  cert_signature : string;
}

type t = {
  ca_name : string;
  key : Rsa.private_key;
  mutable known_eks : string list; (* serialized public keys *)
}

let create rng ~name ~key_bits =
  { ca_name = name; key = Rsa.generate rng ~bits:key_bits; known_eks = [] }

let public_key t = t.key.Rsa.pub
let register_ek t ek = t.known_eks <- Rsa.public_to_string ek :: t.known_eks

let cert_payload ~issuer ~aik = "AIK-CERT" ^ issuer ^ Rsa.public_to_string aik

let certify_aik t ~ek ~aik =
  if not (List.mem (Rsa.public_to_string ek) t.known_eks) then
    Error "Privacy CA: endorsement key not recognized"
  else
    Ok
      {
        subject_aik = aik;
        issuer = t.ca_name;
        cert_signature =
          Pkcs1.sign t.key Hash.SHA1 (cert_payload ~issuer:t.ca_name ~aik);
      }

let verify_certificate ~ca_key cert =
  Pkcs1.verify ca_key Hash.SHA1
    ~msg:(cert_payload ~issuer:cert.issuer ~aik:cert.subject_aik)
    ~signature:cert.cert_signature
