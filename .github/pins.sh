set -eu
# The pinned sha256 of each exact output: the coefficient sweeps, the
# table, one energy and the exact validate report.  Run with the package
# installed, so that `zeeman2d` is on PATH: sh .github/pins.sh
report=$(mktemp)
trap 'rm -f "$report"' EXIT
test "$(zeeman2d coeff --all-up-to 40 | sha256sum | cut -d' ' -f1)" = 6dd7a9de45449c357edecc35a7ecc4bf0a2aef90bd3a5a50a549b015e5cf283b
test "$(zeeman2d coeff --all-up-to 40 --format csv | sha256sum | cut -d' ' -f1)" = 8176943044468983d102c16717a8bfbb3650bbba76444f1a47ef9cb8e037fdba
test "$(zeeman2d coeff --all-up-to 80 --format csv | sha256sum | cut -d' ' -f1)" = c95d9e8af45b8d308d2516479026201a55edb2a9cad856faf5138674833784d7
test "$(zeeman2d coeff --all-up-to 80 --format json | sha256sum | cut -d' ' -f1)" = 00785b81b2a71dbf239c59f21cc5be28bda1185219f0778453e26f1e9c2df09c
test "$(zeeman2d coeff --all-up-to 160 --format csv | sha256sum | cut -d' ' -f1)" = 98bf8d4bd0b8ede00ba1e470485d0dd913d14471764af43215e55955c35a93cd
test "$(zeeman2d table | sha256sum | cut -d' ' -f1)" = ab67fab4d5529d7ae8f668d6168dfd1926035abb4007d2773a55165b2d293695
test "$(zeeman2d table --format csv | sha256sum | cut -d' ' -f1)" = 15d211b9d614c1862c5bf5d5fa66af8366221242094db26d8089e27c2b806a17
test "$(zeeman2d table --format json | sha256sum | cut -d' ' -f1)" = fcec683e7040fcb3b6675698a224bf085292de1dab0832c5b24735e285420e40
test "$(zeeman2d energy --n 2 --l 1 --ml 1 --B-over-B0 1/100 --format json | sha256sum | cut -d' ' -f1)" = dd58afd45b25b7b78e499ca04fe9ec92a4b1e5091937f7bbd620f373201290ff
zeeman2d validate --max-n 0 --json "$report"
test "$(sha256sum "$report" | cut -d' ' -f1)" = 67093fc95ce16c1654584655a003a466fb65b36f49fa675e12ce77cec49dbed4
