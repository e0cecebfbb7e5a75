let mac alg ~key msg =
  let block = Hash.block_size in
  let key = if String.length key > block then Hash.digest alg key else key in
  let key = key ^ String.make (block - String.length key) '\000' in
  let ipad = Util.xor key (String.make block '\x36') in
  let opad = Util.xor key (String.make block '\x5c') in
  Hash.digest alg (opad ^ Hash.digest alg (ipad ^ msg))

let sha1 ~key msg = mac Hash.SHA1 ~key msg

let verify alg ~key ~msg ~tag =
  Util.constant_time_equal (mac alg ~key msg) tag
